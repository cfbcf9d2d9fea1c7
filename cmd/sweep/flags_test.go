package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// runFlags invokes run with args on a fresh flag set, returning the exit
// code, standard output and the flag set run registered its flags on.
func runFlags(t *testing.T, args ...string) (int, string, *flag.FlagSet) {
	t.Helper()
	oldArgs, oldFlags, oldStdout, oldStderr := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = oldArgs, oldFlags, oldStdout, oldStderr }()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	flag.CommandLine, os.Args, os.Stdout, os.Stderr = fs, append([]string{"sweep"}, args...), out, nil
	code := run()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b), fs
}

// TestFlagNames pins the flag set: the ten shared flags internal/cli
// registers plus the ones sweep owns.
func TestFlagNames(t *testing.T) {
	code, _, fs := runFlags(t, "-scale", "0")
	if code != 1 {
		t.Fatalf("-scale 0 exited %d, want 1", code)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"analytic-only", "audit", "bench-json", "cpuprofile", "csv", "j", "keep-going", "l15", "links",
		"max-events", "memprofile", "metrics", "metrics-interval", "nocache", "optimized", "phase2-frac", "refine",
		"scale", "server", "store", "tiled", "timeout", "workloads"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestRejectsBadScale: a -scale that is not a positive, finite number is a
// usage error reported before any run.
func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN", "+Inf"} {
		args := []string{"-workloads", "Stream", "-links", "768", "-l15", "0", "-refine", "1", "-scale", scale}
		if code, out, _ := runFlags(t, args...); code != 1 || out != "" {
			t.Errorf("-scale %s: exit %d, stdout %q; want exit 1 and no output", scale, code, out)
		}
	}
}

// TestRejectsNegativeL15: a negative -l15 capacity is a usage error reported
// before phase 1, not a grid row that silently runs with no L1.5.
func TestRejectsNegativeL15(t *testing.T) {
	args := []string{"-workloads", "Stream", "-links", "768", "-l15", "0,-8", "-analytic-only"}
	if code, out, _ := runFlags(t, args...); code != 1 || out != "" {
		t.Errorf("-l15 0,-8: exit %d, stdout %q; want exit 1 and no output", code, out)
	}
}
