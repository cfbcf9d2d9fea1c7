package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcmgpu/internal/runner"
)

// parse registers the shared flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "test")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// captureStderr points os.Stderr at a file for the rest of the test and
// returns a function reading what was written so far.
func captureStderr(t *testing.T) func() string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = f
	t.Cleanup(func() {
		os.Stderr = old
		f.Close()
	})
	return func() string {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
}

func TestValidateScale(t *testing.T) {
	for _, c := range []struct {
		scale string
		ok    bool
	}{{"1", true}, {"0.05", true}, {"0", false}, {"-1", false}, {"NaN", false}, {"+Inf", false}} {
		err := parse(t, "-scale", c.scale).Validate()
		if (err == nil) != c.ok {
			t.Errorf("-scale %s: Validate() = %v, want ok=%v", c.scale, err, c.ok)
		}
	}
}

// TestFlagsReachRunner: every shared flag lands on the runner Build returns.
func TestFlagsReachRunner(t *testing.T) {
	t.Setenv("MCMGPU_FAULT", "panic@5000:Stream")
	stderr := captureStderr(t)
	dir := t.TempDir()
	f := parse(t, "-scale", "0.5", "-timeout", "1h", "-max-events", "123", "-audit", "-keep-going",
		"-metrics", filepath.Join(dir, "m.csv"), "-metrics-interval", "64", "-store", filepath.Join(dir, "rs"))
	before := time.Now()
	r, closeRun, err := f.Build(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Limits.WallDeadline.Sub(before); d < time.Hour || d > time.Hour+time.Minute {
		t.Errorf("deadline %v after Build, want -timeout 1h", d)
	}
	if r.Limits.MaxEvents != 123 || !r.Limits.Audit || r.FailFast {
		t.Errorf("limits %+v, fail-fast %v: want 123 events, audited, collect-errors", r.Limits, r.FailFast)
	}
	if r.Fault.String() != "panic@5000:Stream" {
		t.Errorf("fault plan %q, want MCMGPU_FAULT's", r.Fault.String())
	}
	if r.Cache != runner.Shared() {
		t.Error("the shared run cache is not attached")
	}
	if m := r.Metrics; m == nil || m.W == nil || !m.CSV || m.Interval != 64 {
		t.Errorf("metrics %+v, want a CSV output sampled every 64 cycles", m)
	}
	if r.Store == nil {
		t.Error("no store attached")
	}
	if err := closeRun(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr(), "test: store: 0 hits, 0 misses, 0 puts") {
		t.Errorf("close printed no store line:\n%s", stderr())
	}

	// The defaults ask for none of it; noCache leaves the cache off.
	t.Setenv("MCMGPU_FAULT", "")
	r, closeRun, err = parse(t).Build(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Limits.WallDeadline.IsZero() || r.Limits.MaxEvents != 0 || r.Limits.Audit || !r.FailFast ||
		r.Fault.Enabled() || r.Cache != nil || r.Metrics != nil || r.Store != nil {
		t.Errorf("default runner %+v is not bare", r)
	}
	if err := closeRun(); err != nil {
		t.Fatal(err)
	}
}

func TestBadFaultPlan(t *testing.T) {
	t.Setenv("MCMGPU_FAULT", "nonsense")
	if _, _, err := parse(t).Build(true, nil); err == nil {
		t.Fatal("Build accepted a malformed MCMGPU_FAULT")
	}
}

// TestCheckRunsBeforeFiles: a refusing check leaves no metrics file and no
// store directory behind.
func TestCheckRunsBeforeFiles(t *testing.T) {
	dir := t.TempDir()
	metrics, store := filepath.Join(dir, "m.ndjson"), filepath.Join(dir, "rs")
	refuse := errors.New("refused")
	_, _, err := parse(t, "-metrics", metrics, "-store", store).Build(true, func(*runner.Runner) error { return refuse })
	if err != refuse {
		t.Fatalf("Build error %v, want the check's", err)
	}
	for _, path := range []string{metrics, store} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s exists after a refused check (%v)", path, err)
		}
	}
}

// TestUnopenableStoreDegrades: a store that cannot open is a warning and
// the runner computes without one.
func TestUnopenableStoreDegrades(t *testing.T) {
	stderr := captureStderr(t)
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r, closeRun, err := parse(t, "-store", filepath.Join(file, "rs")).Build(true, nil)
	if err != nil {
		t.Fatalf("Build failed instead of degrading: %v", err)
	}
	if r.Store != nil {
		t.Error("runner has a store")
	}
	if err := closeRun(); err != nil {
		t.Fatal(err)
	}
	if out := stderr(); !strings.Contains(out, "test: store unavailable, computing without it: ") {
		t.Errorf("no degradation warning:\n%s", out)
	}
}

// TestCloseReturnsMetricsError: a -metrics output whose Close fails — here
// a gzip stream that cannot flush to a full device — fails the close
// function.
func TestCloseReturnsMetricsError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	stderr := captureStderr(t)
	path := filepath.Join(t.TempDir(), "m.ndjson.gz")
	if err := os.Symlink("/dev/full", path); err != nil {
		t.Fatal(err)
	}
	r, closeRun, err := parse(t, "-metrics", path).Build(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The gzip header write already fails; Close must still report it.
	io.WriteString(r.Metrics.W, "{}\n")
	if err := closeRun(); err == nil {
		t.Fatal("close returned nil for a stream that could not be written")
	}
	if out := stderr(); !strings.HasPrefix(out, "test: ") {
		t.Errorf("close did not report the error:\n%s", out)
	}
}
