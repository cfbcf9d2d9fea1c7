package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// runCLI invokes run with the given arguments on a fresh flag set and
// returns its exit code, standard output and standard error.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	oldArgs, oldFlags, oldStdout, oldStderr := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = oldArgs, oldFlags, oldStdout, oldStderr }()
	os.Args = append([]string{"experiments"}, args...)
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ContinueOnError)
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	os.Stdout, os.Stderr = outF, errF
	code = run()
	return code, readFile(t, outF.Name()), readFile(t, errF.Name())
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFlagNames pins the flag set: the ten shared flags internal/cli
// registers plus the ones experiments owns.
func TestFlagNames(t *testing.T) {
	oldArgs, oldFlags, oldStderr := os.Args, flag.CommandLine, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stderr = oldArgs, oldFlags, oldStderr }()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	flag.CommandLine, os.Args, os.Stderr = fs, []string{"experiments", "-scale", "0"}, nil
	if code := run(); code != 1 {
		t.Fatalf("-scale 0 exited %d, want 1", code)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"audit", "bars", "cpuprofile", "csv", "exp", "j", "keep-going", "list", "max",
		"max-events", "memprofile", "metrics", "metrics-interval", "nocache", "scale", "store", "timeout"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestListStableAndSorted: -list prints every experiment id once, sorted,
// and the same on every call.
func TestListStableAndSorted(t *testing.T) {
	code, first, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	ids := strings.Fields(first)
	if !sort.StringsAreSorted(ids) || len(ids) < 20 {
		t.Fatalf("-list printed %v, want the experiment ids sorted", ids)
	}
	if _, again, _ := runCLI(t, "-list"); again != first {
		t.Fatalf("-list output changed between runs:\n%s\n---\n%s", first, again)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "fig99")
	if code != 1 || out != "" || !strings.Contains(errOut, `unknown id "fig99"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming the id", code, out, errOut)
	}
}

// TestRejectsBadScale: a -scale that is not a positive, finite number is a
// usage error reported before any run.
func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN", "+Inf"} {
		if code, out, _ := runCLI(t, "-exp", "fig7", "-max", "1", "-scale", scale); code != 1 || out != "" {
			t.Errorf("-scale %s: exit %d, stdout %q; want exit 1 and no output", scale, code, out)
		}
	}
}

// timing matches the per-experiment wall-time line.
var timing = regexp.MustCompile(`(?m)^\[.* in .*\]\n`)

// TestWarmStoreRerun: a second run over the same -store serves every cell
// from disk and prints the same tables.
func TestWarmStoreRerun(t *testing.T) {
	store := filepath.Join(t.TempDir(), "rs")
	args := []string{"-exp", "fig7", "-scale", "0.05", "-max", "1", "-nocache", "-store", store}
	var outs, stores [2]string
	for i := range outs {
		code, out, errOut := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("run %d exited %d:\n%s", i, code, errOut)
		}
		outs[i] = timing.ReplaceAllString(out, "")
		stores[i] = regexp.MustCompile(`experiments: store: .*`).FindString(errOut)
	}
	if outs[0] == "" || outs[1] != outs[0] {
		t.Errorf("warm run printed\n%s\ncold run printed\n%s", outs[1], outs[0])
	}
	if !strings.Contains(stores[0], " 0 hits, ") || strings.Contains(stores[0], " 0 puts") {
		t.Errorf("cold run: %q, want only misses and puts", stores[0])
	}
	if !strings.Contains(stores[1], " 0 misses, 0 puts") {
		t.Errorf("warm run: %q, want 0 misses, 0 puts", stores[1])
	}
}
