package main

import (
	"testing"

	"mcmgpu/internal/config"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/workload"
)

// The two sweep benchmarks measure the same default grid end to end, cold
// caches each iteration, so their ratio is the wall-clock win of the
// two-phase fast path over legacy full simulation.

func benchGrid() ([]*config.Config, []float64, []*workload.Spec) {
	linkVals := []float64{384, 768, 1536, 3072}
	l15Vals := []int{0, 8, 16}
	cfgs := buildGrid(l15Vals, linkVals, true, false)
	costs := make([]float64, len(cfgs))
	for i := range cfgs {
		costs[i] = linkVals[i%len(linkVals)]
	}
	return cfgs, costs, workload.Suite()
}

func simulateCells(b *testing.B, r *runner.Runner, base *config.Config, cfgs []*config.Config, cells []int, specs []*workload.Spec) {
	b.Helper()
	var jobs []runner.Job
	for _, s := range specs {
		jobs = append(jobs, runner.Job{Config: base, Spec: s, Scale: 0.05})
	}
	for _, ci := range cells {
		for _, s := range specs {
			jobs = append(jobs, runner.Job{Config: cfgs[ci], Spec: s, Scale: 0.05})
		}
	}
	if _, err := r.Run(jobs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepFull simulates every grid cell, the legacy -phase2-frac 1
// behavior.
func BenchmarkSweepFull(b *testing.B) {
	cfgs, _, specs := benchGrid()
	base := config.BaselineMCM()
	all := make([]int, len(cfgs))
	for i := range all {
		all[i] = i
	}
	for i := 0; i < b.N; i++ {
		r := &runner.Runner{Cache: runner.NewCache()}
		simulateCells(b, r, base, cfgs, all, specs)
	}
}

// BenchmarkSweepTwoPhase scores the grid analytically, then simulates only
// the frontier-first 25% selection — the default sweep behavior.
func BenchmarkSweepTwoPhase(b *testing.B) {
	cfgs, costs, specs := benchGrid()
	base := config.BaselineMCM()
	for i := 0; i < b.N; i++ {
		r := &runner.Runner{Cache: runner.NewCache()}
		scores, _, err := scoreGrid(r, base, cfgs, specs, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		frontier := paretoFrontier(costs, scores, frontierTol)
		selected := selectCells(scores, frontier, phase2Budget(len(cfgs), 0, 0.25))
		simulateCells(b, r, base, cfgs, selected, specs)
	}
}
