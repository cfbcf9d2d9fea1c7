package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload traced on tiny inputs: each must pass
// its correctness checks and report every end-to-end and per-layer metric.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the repository's binaries")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "bin")
	if err := buildTools(root, bin, "sweep", "mcmstat", "mcmserve"); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 3, seconds: time.Second, quick: true, workers: 2,
				root: root, work: t.TempDir(), bin: bin, traceDir: t.TempDir(), tr: newTracer()}
			r, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				out, err := r.result(traced)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct {
					t.Errorf("traced=%v: not correct: %v", traced, r.problems)
				}
			}
			if _, err := os.Stat(filepath.Join(e.traceDir, "spans.json")); err != nil {
				t.Error(err)
			}
		})
	}
}
