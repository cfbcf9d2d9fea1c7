package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcmgpu/internal/config"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/stats"
	"mcmgpu/internal/workload"
)

func TestParetoFrontier(t *testing.T) {
	cases := []struct {
		name   string
		costs  []float64
		scores []float64
		tol    float64
		want   []int
	}{
		{
			name:  "staircase keeps strict improvements",
			costs: []float64{1, 2, 3}, scores: []float64{1.0, 1.2, 1.5},
			want: []int{0, 1, 2},
		},
		{
			name:  "dominated cell dropped",
			costs: []float64{1, 2, 3}, scores: []float64{1.0, 0.9, 1.5},
			want: []int{0, 2},
		},
		{
			name:  "within a cost tier only the best survives",
			costs: []float64{1, 1, 2}, scores: []float64{1.0, 1.4, 1.6},
			want: []int{1, 2},
		},
		{
			name:  "tolerance rejects saturation noise",
			costs: []float64{1, 2}, scores: []float64{1.000, 1.005},
			tol:  0.012,
			want: []int{0},
		},
		{
			name:  "tie keeps the lowest index",
			costs: []float64{1, 1}, scores: []float64{1.5, 1.5},
			want: []int{0},
		},
		{name: "empty", costs: nil, scores: nil, want: nil},
	}
	for _, tc := range cases {
		if got := paretoFrontier(tc.costs, tc.scores, tc.tol); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: frontier = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPhase2Budget(t *testing.T) {
	cases := []struct {
		cells, refine int
		frac          float64
		want          int
	}{
		{12, 0, 0.25, 3},
		{12, 0, 1, 12},
		{12, 5, 0.25, 5}, // -refine overrides the fraction
		{12, 99, 0.25, 12} /* clamped to the grid */, {10, 0, 0.0, 0},
		{7, 0, 0.25, 2}, // ceil
	}
	for _, tc := range cases {
		if got := phase2Budget(tc.cells, tc.refine, tc.frac); got != tc.want {
			t.Errorf("phase2Budget(%d, %d, %g) = %d, want %d",
				tc.cells, tc.refine, tc.frac, got, tc.want)
		}
	}
}

func TestSelectCells(t *testing.T) {
	scores := []float64{1.0, 1.5, 1.2, 1.4, 1.1}
	frontier := []int{0, 2}
	// Frontier first (best frontier score first), then best remainder.
	if got := selectCells(scores, frontier, 3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("budget 3: %v", got)
	}
	// Budget caps the frontier itself, dropping its lowest score.
	if got := selectCells(scores, frontier, 1); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("budget 1: %v", got)
	}
	if got := selectCells(scores, frontier, 0); len(got) != 0 {
		t.Errorf("budget 0: %v", got)
	}
	if got := selectCells(scores, frontier, 99); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("budget 99: %v", got)
	}
}

func TestRenderGridMarksEstimates(t *testing.T) {
	l15 := []int{0, 8}
	links := []float64{384, 768}
	est := [][]float64{{1.0, 1.0}, {1.1, 1.1}, {1.2, 1.2}, {1.3, 1.3}}
	sim := map[int][]float64{
		1: {1.15, 1.15}, // simulated cell
		2: {},           // simulated cell whose jobs all failed
	}
	var b strings.Builder
	if ok := renderGrid(&b, l15, links, est, sim); ok {
		t.Error("renderGrid returned ok despite an ERR cell")
	}
	want := "l15MB\\linkGBps,384,768\n" +
		"0,~1.0000,1.1500\n" +
		"8,ERR,~1.3000\n"
	if b.String() != want {
		t.Errorf("grid:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestWriteBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	err := writeBench(path, benchReport{
		GridCells:      12,
		Workloads:      3,
		SimulatedCells: 3,
		Phase1Seconds:  0.004,
		Phase2Seconds:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.AnalyticCellsPerSec != 3000 || got.SimCellsPerSec != 0.5 {
		t.Fatalf("rates: %+v", got)
	}
	if math.Abs(got.ThroughputRatio-6000) > 1e-9 {
		t.Fatalf("ratio = %v, want 6000", got.ThroughputRatio)
	}
}

// TestTwoPhaseReproducesFrontier is the acceptance check for the two-phase
// sweep: on the default grid, phase 1's analytic scores plus a 25% phase 2
// budget select cells whose simulated values yield the same Pareto frontier
// full simulation finds, while dispatching engine events for at most 25% of
// grid cells.
func TestTwoPhaseReproducesFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid simulation in -short mode")
	}
	const scale = 0.05
	linkVals := []float64{384, 768, 1536, 3072}
	l15Vals := []int{0, 8, 16}
	specs := workload.Suite()
	cfgs := buildGrid(l15Vals, linkVals, true, false)
	base := config.BaselineMCM()
	costs := make([]float64, len(cfgs))
	for i := range cfgs {
		costs[i] = linkVals[i%len(linkVals)]
	}
	r := &runner.Runner{Cache: runner.Shared()}

	// Reference: full simulation of every grid cell.
	var jobs []runner.Job
	for _, s := range specs {
		jobs = append(jobs, runner.Job{Config: base, Spec: s, Scale: scale})
	}
	for _, cfg := range cfgs {
		for _, s := range specs {
			jobs = append(jobs, runner.Job{Config: cfg, Spec: s, Scale: scale})
		}
	}
	results, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	n := len(specs)
	fullScores := make([]float64, len(cfgs))
	for ci := range cfgs {
		var sp []float64
		for i := 0; i < n; i++ {
			sp = append(sp, results[(ci+1)*n+i].SpeedupOver(results[i]))
		}
		g, gerr := stats.GeoMean(sp)
		if gerr != nil {
			t.Fatal(gerr)
		}
		fullScores[ci] = g
	}
	wantFrontier := paretoFrontier(costs, fullScores, frontierTol)
	if len(wantFrontier) == 0 {
		t.Fatal("full-simulation frontier is empty")
	}

	// Two-phase: analytic scores, frontier-first selection, 25% budget.
	scores, _, err := scoreGrid(r, base, cfgs, specs, scale)
	if err != nil {
		t.Fatal(err)
	}
	frontier := paretoFrontier(costs, scores, frontierTol)
	budget := phase2Budget(len(cfgs), 0, 0.25)
	selected := selectCells(scores, frontier, budget)
	if 4*len(selected) > len(cfgs) {
		t.Fatalf("phase 2 selected %d/%d cells, above the 25%% budget", len(selected), len(cfgs))
	}

	// Final output values: measured for selected cells (the engine is
	// deterministic, so the reference results are what phase 2 would
	// produce), estimated otherwise.
	final := append([]float64(nil), scores...)
	for _, ci := range selected {
		final[ci] = fullScores[ci]
	}
	gotFrontier := paretoFrontier(costs, final, frontierTol)
	if !reflect.DeepEqual(gotFrontier, wantFrontier) {
		name := func(is []int) []string {
			var out []string
			for _, i := range is {
				out = append(out, cfgs[i].Name)
			}
			return out
		}
		t.Errorf("two-phase frontier %v != full-simulation frontier %v",
			name(gotFrontier), name(wantFrontier))
	}
}
