package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcmgpu/internal/cli"
	"mcmgpu/internal/config"
	"mcmgpu/internal/metricstream"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/workload"
)

// TestFlagNames pins mcmsim's flag set: the ten shared flags internal/cli
// registers plus mcmsim's own.
func TestFlagNames(t *testing.T) {
	oldArgs, oldFlags, oldStderr := os.Args, flag.CommandLine, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stderr = oldArgs, oldFlags, oldStderr }()
	fs := flag.NewFlagSet("mcmsim", flag.ContinueOnError)
	flag.CommandLine, os.Args, os.Stderr = fs, []string{"mcmsim", "-scale", "0"}, nil
	if code := run(); code != 1 {
		t.Fatalf("-scale 0 exited %d, want 1", code)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"audit", "characterize", "config", "cpuprofile", "dump-config", "json",
		"keep-going", "link", "list", "max-cycles", "max-events", "memprofile", "metrics",
		"metrics-interval", "scale", "store", "system", "timeout", "v", "workload"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// storeLine returns the "mcmsim: store:" line of a run's stderr.
func storeLine(t *testing.T, stderr string) string {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "mcmsim: store: ") {
			return line
		}
	}
	t.Fatalf("no store line in stderr:\n%s", stderr)
	return ""
}

// TestJSONUnchangedByMetrics: -metrics adds nothing to -json output, so it
// still decodes as JSON and equals the unsampled run's.
func TestJSONUnchangedByMetrics(t *testing.T) {
	args := []string{"-workload", "limited", "-scale", "0.05", "-json"}
	code, plain := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("mcmsim %v exited %d", args, code)
	}
	stream := filepath.Join(t.TempDir(), "out.ndjson")
	code, sampled := runCLI(t, append(args, "-metrics", stream)...)
	if code != 0 {
		t.Fatalf("mcmsim %v -metrics exited %d", args, code)
	}
	if sampled != plain {
		t.Errorf("-metrics changed -json stdout:\n%s\n---\n%s", sampled, plain)
	}
	dec := json.NewDecoder(strings.NewReader(sampled))
	n := 0
	for {
		var res map[string]interface{}
		if err := dec.Decode(&res); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("result %d: %v", n, err)
		}
		n++
	}
	if n != len(workload.Limited()) {
		t.Errorf("decoded %d results, want %d", n, len(workload.Limited()))
	}
	if fi, err := os.Stat(stream); err != nil || fi.Size() == 0 {
		t.Errorf("no metrics records streamed (%v)", err)
	}
}

// TestStoreWarmRunMatchesCold: a second -store run serves every workload
// from disk, prints what the cold run printed, summary tables included, and
// streams the same bytes, in NDJSON and in CSV.
func TestStoreWarmRunMatchesCold(t *testing.T) {
	n := len(workload.Limited())
	for _, ext := range []string{".ndjson", ".csv"} {
		dir := t.TempDir()
		pass := func(name string) (stdout, store string, stream []byte) {
			path := filepath.Join(dir, name+ext)
			code, out, errOut := runCLIStderr(t, "-workload", "limited", "-scale", "0.05",
				"-store", filepath.Join(dir, "rs"), "-metrics", path, "-metrics-interval", "512")
			if code != 0 {
				t.Fatalf("%s %s run exited %d:\n%s", ext, name, code, errOut)
			}
			return out, storeLine(t, errOut), []byte(readFile(t, path))
		}
		coldOut, coldStore, coldStream := pass("cold")
		warmOut, warmStore, warmStream := pass("warm")
		if !strings.Contains(coldStore, " 0 hits, 15 misses, 15 puts") {
			t.Errorf("%s cold run: %s", ext, coldStore)
		}
		if !strings.Contains(warmStore, " 15 hits, 0 misses, 0 puts") {
			t.Errorf("%s warm run: %s", ext, warmStore)
		}
		if got := strings.Count(coldOut, "DRAM bandwidth timeline"); got != n {
			t.Errorf("%s cold run printed %d summaries, want %d", ext, got, n)
		}
		if warmOut != coldOut {
			t.Errorf("%s warm stdout differs from cold:\n%s\n---\n%s", ext, warmOut, coldOut)
		}
		if len(coldStream) == 0 || !bytes.Equal(warmStream, coldStream) {
			t.Errorf("%s warm stream (%d bytes) differs from cold (%d bytes)", ext, len(warmStream), len(coldStream))
		}
	}
}

// TestStoreSharedWithSweep: the baseline cells sweep's runner puts in a
// store serve mcmsim without a simulation, since both key cells alike.
func TestStoreSharedWithSweep(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rs")
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	sh := cli.Register(fs, "sweep")
	if err := fs.Parse([]string{"-scale", "0.05", "-store", dir}); err != nil {
		t.Fatal(err)
	}
	r, closeRun, err := sh.Build(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []runner.Job
	for _, s := range workload.Limited() {
		jobs = append(jobs, runner.Job{Config: config.BaselineMCM(), Spec: s, Scale: sh.Scale})
	}
	if _, err := r.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if err := closeRun(); err != nil {
		t.Fatal(err)
	}

	code, _, errOut := runCLIStderr(t, "-workload", "limited", "-scale", "0.05", "-store", dir)
	if code != 0 {
		t.Fatalf("mcmsim exited %d:\n%s", code, errOut)
	}
	if line := storeLine(t, errOut); !strings.Contains(line, " 15 hits, 0 misses, 0 puts") {
		t.Errorf("mcmsim over sweep's store: %s", line)
	}
}

// TestKeepGoingContainsPanic: a panicking run fails only its own workload;
// with -keep-going every other result prints and the exit code is 1.
func TestKeepGoingContainsPanic(t *testing.T) {
	t.Setenv("MCMGPU_FAULT", "panic@5000:Stream")
	code, out, errOut := runCLIStderr(t, "-workload", "m-intensive", "-scale", "0.05", "-keep-going")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if want := len(workload.MIntensive()) - 1; len(lines) != want {
		t.Errorf("printed %d results, want %d:\n%s", len(lines), want, out)
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "mcm-baseline/Stream:") {
			t.Errorf("the panicking workload printed a result: %s", line)
		}
	}
	for _, want := range []string{"mcmsim: panic: ", "mcmsim: 1 of 17 workloads failed"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr lacks %q:\n%s", want, errOut)
		}
	}
}

// TestFailedRunStreamsNothing: an audited run that fails leaves no records
// in the -metrics stream, while every other workload streams its own.
func TestFailedRunStreamsNothing(t *testing.T) {
	t.Setenv("MCMGPU_FAULT", "corrupt-counter.line-reads@5000:Stream")
	path := filepath.Join(t.TempDir(), "out.ndjson")
	code, _, errOut := runCLIStderr(t, "-workload", "m-intensive", "-scale", "0.05", "-audit", "-keep-going",
		"-metrics", path, "-metrics-interval", "64")
	if code != 1 || !strings.Contains(errOut, "l1-flow") {
		t.Fatalf("exit %d, want 1 with an l1-flow violation; stderr:\n%s", code, errOut)
	}
	// The failure line is the bare SimError, which names the job once.
	if !strings.Contains("\n"+errOut, "\nmcmsim: sim error: Stream on mcm-baseline: invariant") {
		t.Errorf("failure line is not the bare SimError:\n%s", errOut)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := metricstream.NewScanner(f, metricstream.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for sc.Scan() {
		seen[string(sc.Record().Workload)] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen["Stream"] {
		t.Error("the failed Stream run left records in the stream")
	}
	if want := len(workload.MIntensive()) - 1; len(seen) != want {
		t.Errorf("stream has records of %d workloads, want %d", len(seen), want)
	}
}

// TestInvalidMachineFailsOnce: a machine the simulator cannot build is
// reported once, before any run, even under -keep-going.
func TestInvalidMachineFailsOnce(t *testing.T) {
	cfg := config.BaselineMCM()
	cfg.L2.WriteBack = false
	path := filepath.Join(t.TempDir(), "wt.json")
	if err := cfg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLIStderr(t, "-config", path, "-workload", "limited", "-scale", "0.05", "-keep-going")
	if code != 1 || out != "" || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, "L2 must be write-back") {
		t.Fatalf("exit %d, stdout %q, stderr:\n%s\nwant exit 1 and one line naming write-back", code, out, errOut)
	}
}
