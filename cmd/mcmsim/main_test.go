package main

import (
	"flag"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// runCLI invokes run with the given arguments on a fresh flag set and
// returns its exit code and standard output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	os.Args = append([]string{"mcmsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("mcmsim", flag.ContinueOnError)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r) // the pipe only fails if w closes early
		done <- string(out)
	}()
	code := run()
	w.Close()
	return code, <-done
}

// TestListStableAndSorted runs -list twice: the output must be identical
// and the system presets sorted.
func TestListStableAndSorted(t *testing.T) {
	code, first := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if _, second := runCLI(t, "-list"); second != first {
		t.Fatalf("-list output changed between runs:\n%s\n---\n%s", first, second)
	}
	sys, _, ok := strings.Cut(strings.TrimPrefix(first, "systems:\n"), "workloads:\n")
	if !ok {
		t.Fatalf("unexpected -list output:\n%s", first)
	}
	names := strings.Fields(sys)
	if len(names) != len(systems) || !sort.StringsAreSorted(names) {
		t.Fatalf("system presets not listed once each in sorted order: %v", names)
	}
}
