package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mcmgpu/internal/workload"
)

// runCLI invokes run with the given arguments on a fresh flag set and
// returns its exit code and standard output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	code, out, _ := runCLIStderr(t, args...)
	return code, out
}

// runCLIStderr is runCLI that also returns standard error.
func runCLIStderr(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	oldArgs, oldFlags, oldStdout, oldStderr := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = oldArgs, oldFlags, oldStdout, oldStderr }()
	os.Args = append([]string{"mcmsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("mcmsim", flag.ContinueOnError)
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

// TestRejectsBadScale: a -scale that is not a positive, finite number is a
// usage error reported before any run, not a panic.
func TestRejectsBadScale(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "Stream", "-scale", "0"},
		{"-characterize", "-workload", "Stream", "-scale", "-1"},
		{"-workload", "Stream", "-scale", "NaN"},
		{"-workload", "Stream", "-scale", "+Inf"},
	} {
		if code, out := runCLI(t, args...); code != 1 || out != "" {
			t.Errorf("mcmsim %v: exit %d, stdout %q; want exit 1 and no output", args, code, out)
		}
	}
}

// characterizeRuns are the -characterize selections the tests below check:
// the whole suite and the dense pair, each at a scale that keeps them fast.
var characterizeRuns = []struct {
	workload string
	scale    float64
}{{"all", 0.1}, {"dense", 0.05}}

func characterizeArgs(workload string, scale float64) []string {
	return []string{"-characterize", "-workload", workload, "-scale", fmt.Sprint(scale)}
}

// characterizeRow is one parsed -characterize row with the scaled spec it
// walked.
type characterizeRow struct {
	spec                        *workload.Spec
	ops, unique                 int
	footprint, writeFrac, reuse float64
}

// characterizeRows runs every selection in characterizeRuns and parses one
// row per selected workload.
func characterizeRows(t *testing.T) []characterizeRow {
	t.Helper()
	var rows []characterizeRow
	for _, sel := range characterizeRuns {
		args := characterizeArgs(sel.workload, sel.scale)
		code, out := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("mcmsim %v exited %d", args, code)
		}
		specs, err := workload.Select(sel.workload)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")[3:] // title, header, rule
		if len(lines) != len(specs) {
			t.Fatalf("mcmsim %v printed %d rows for %d workloads", args, len(lines), len(specs))
		}
		for _, line := range lines {
			f := strings.Fields(line)
			if len(f) != 8 {
				t.Fatalf("malformed row %q", line)
			}
			spec, err := workload.ByName(f[0])
			if err != nil {
				t.Fatal(err)
			}
			r := characterizeRow{spec: spec.Scaled(sel.scale)}
			if _, err := fmt.Sscan(strings.Join(f[3:], " "), &r.ops, &r.unique, &r.footprint, &r.writeFrac, &r.reuse); err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// TestCharacterizeOps: every -characterize row counts every warp's ops over
// one launch.
func TestCharacterizeOps(t *testing.T) {
	for _, r := range characterizeRows(t) {
		if want := int(r.spec.TotalMemOps() / uint64(r.spec.KernelIters)); r.ops != want {
			t.Errorf("%s: %d ops, want %d (CTAs x warps x per-CTA ops)", r.spec.Name, r.ops, want)
		}
	}
}

// TestCharacterizeSummary: in every -characterize row each distinct line is
// accessed at least once, the footprint is the distinct lines at 128 B each
// and within the model working set, and the write share is a fraction near
// the spec's.
func TestCharacterizeSummary(t *testing.T) {
	for _, r := range characterizeRows(t) {
		name := r.spec.Name
		if r.unique <= 0 || r.reuse < 1 {
			t.Errorf("%s: %d unique lines with reuse %v, want > 0 lines each reused >= 1 time", name, r.unique, r.reuse)
		}
		if lineMB := float64(r.unique) * 128 / (1 << 20); math.Abs(r.footprint-lineMB) > 0.0006 ||
			r.footprint > r.spec.ModelFootprintMB()+0.01 {
			t.Errorf("%s: footprint %v MB, want %v (unique lines x 128 B) within the %v MB model",
				name, r.footprint, lineMB, r.spec.ModelFootprintMB())
		}
		if r.writeFrac < 0 || r.writeFrac > 1 || math.Abs(r.writeFrac-r.spec.WriteFraction) > 0.05 {
			t.Errorf("%s: write fraction %v, want within 0.05 of the spec's %v", name, r.writeFrac, r.spec.WriteFraction)
		}
	}
}

// TestCharacterizeDeterministic: two -characterize runs print identical
// output.
func TestCharacterizeDeterministic(t *testing.T) {
	for _, sel := range characterizeRuns {
		args := characterizeArgs(sel.workload, sel.scale)
		code, out := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("mcmsim %v exited %d", args, code)
		}
		if _, again := runCLI(t, args...); again != out {
			t.Fatalf("mcmsim %v output changed between runs:\n%s\n---\n%s", args, out, again)
		}
	}
}

// TestCharacterizeRejectsInvalidSpec: characterize validates each spec
// before walking it.
func TestCharacterizeRejectsInvalidSpec(t *testing.T) {
	bad := *workload.Suite()[0]
	bad.CTAs = 0
	if err := characterize([]*workload.Spec{&bad}, 1); err == nil {
		t.Fatal("characterize accepted an invalid spec")
	}
}
