package mcmgpu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcmgpu/internal/runner"
)

// quick returns options that keep facade tests fast: one workload per
// category at a tenth of the full size.
func quick() Options {
	return Options{Scale: 0.1, MaxPerCategory: 1}
}

func TestRunBaseline(t *testing.T) {
	res, err := RunScaled(BaselineMCM(), MustWorkload("CFD"), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.MemOps == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Config != "mcm-baseline" || res.Workload != "CFD" {
		t.Fatalf("identity wrong: %s/%s", res.Config, res.Workload)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := BaselineMCM()
	cfg.Modules = -1
	if _, err := Run(cfg, MustWorkload("CFD")); err == nil {
		t.Fatalf("bad config accepted")
	}
}

func TestMustWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustWorkload(unknown) did not panic")
		}
	}()
	MustWorkload("not-a-workload")
}

func TestWorkloadAccessors(t *testing.T) {
	if got := len(Workloads()); got != 48 {
		t.Errorf("Workloads = %d, want 48", got)
	}
	if got := len(MIntensiveWorkloads()); got != 17 {
		t.Errorf("MIntensive = %d, want 17", got)
	}
	if got := len(CIntensiveWorkloads()); got != 16 {
		t.Errorf("CIntensive = %d, want 16", got)
	}
	if got := len(LimitedWorkloads()); got != 15 {
		t.Errorf("Limited = %d, want 15", got)
	}
	if _, err := WorkloadByName("Stream"); err != nil {
		t.Errorf("WorkloadByName(Stream): %v", err)
	}
}

func TestOptimizedBeatsBaselineOnStencil(t *testing.T) {
	spec := MustWorkload("CoMD")
	base, err := RunScaled(BaselineMCM(), spec, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunScaled(OptimizedMCM(), spec, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if s := Speedup(base, opt); s < 1.2 {
		t.Errorf("optimized speedup on CoMD = %.2f, want > 1.2 (paper: up to 3.5x)", s)
	}
	if opt.InterModuleBytes >= base.InterModuleBytes {
		t.Errorf("optimizations did not reduce inter-GPM traffic: %d vs %d",
			opt.InterModuleBytes, base.InterModuleBytes)
	}
}

func TestAnalyticExample(t *testing.T) {
	m := PaperAnalyticExample()
	if m.RequiredLinkGBps() != 3072 {
		t.Fatalf("analytic requirement = %v, want 3072", m.RequiredLinkGBps())
	}
}

func TestEstimateScaledFacade(t *testing.T) {
	cfg := OptimizedMCM()
	spec := MustWorkload("GEMM")
	est, err := EstimateScaled(cfg, spec, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if est.IPC <= 0 || est.Cycles <= 0 {
		t.Fatalf("degenerate estimate: %+v", est)
	}
	// The one-shot form matches a reused Estimator.
	e, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Estimate(spec, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if *again != *est {
		t.Fatalf("one-shot and reused estimator disagree:\n%+v\n%+v", est, again)
	}
	if _, err := EstimateScaled(&Config{}, spec, 0.05); err == nil {
		t.Fatal("zero config: want error")
	}
}

// smallSpec is a workload small enough to simulate at full size in a test.
func smallSpec() *Spec {
	return &Spec{
		Name: "small", Category: MemoryIntensive,
		CTAs: 64, WarpsPerCTA: 4, MemOpsPerWarp: 8, ComputePerMem: 2,
		KernelIters: 1, FootprintLines: 4096, WriteFraction: 0.2, LinesPerOp: 1, Seed: 3,
	}
}

// TestNonPositiveScaleRunsFullSize: a scale of 0 or below means full size
// on every path that applies one, the same as a scale of 1, and never
// panics.
func TestNonPositiveScaleRunsFullSize(t *testing.T) {
	cfg, spec := OptimizedMCM(), smallSpec()
	full, err := RunScaled(cfg, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	fullEst, err := EstimateScaled(cfg, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0, -1} {
		res, err := RunScaled(cfg, spec, scale)
		if err != nil {
			t.Fatalf("RunScaled at %g: %v", scale, err)
		}
		if !reflect.DeepEqual(res, full) {
			t.Errorf("RunScaled at %g differs from the full-size run", scale)
		}
		ran, err := (&runner.Runner{Workers: 1}).Run([]runner.Job{{Config: cfg, Spec: spec, Scale: scale}})
		if err != nil {
			t.Fatalf("runner at %g: %v", scale, err)
		}
		if !reflect.DeepEqual(ran[0], full) {
			t.Errorf("runner at %g differs from the full-size run", scale)
		}
		est, err := EstimateScaled(cfg, spec, scale)
		if err != nil {
			t.Fatalf("EstimateScaled at %g: %v", scale, err)
		}
		if *est != *fullEst {
			t.Errorf("EstimateScaled at %g differs from the full-size estimate", scale)
		}
	}
}

// TestWideCTARefusedAlike: the engine and the estimator refuse a CTA with
// more warps than an SM holds, with the same error, since both take the
// refusal from the fill that launches a kernel.
func TestWideCTARefusedAlike(t *testing.T) {
	cfg, spec := BaselineMCM(), smallSpec()
	spec.WarpsPerCTA = cfg.WarpsPerSM + 1
	_, runErr := RunWith(cfg, spec, RunOptions{})
	_, estErr := EstimateScaled(cfg, spec, 1)
	if runErr == nil || estErr == nil {
		t.Fatalf("a %d-warp CTA on a %d-warp SM: run error %v, estimate error %v; want both refused",
			spec.WarpsPerCTA, cfg.WarpsPerSM, runErr, estErr)
	}
	if runErr.Error() != estErr.Error() {
		t.Errorf("run refused with %q, estimate with %q; want one error", runErr, estErr)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scale() != 1 {
		t.Errorf("zero Options scale = %v, want 1", o.scale())
	}
	if got := len(o.suite()); got != 48 {
		t.Errorf("zero Options suite = %d, want 48", got)
	}
	o = Options{MaxPerCategory: 2}
	if got := len(o.suite()); got != 6 {
		t.Errorf("MaxPerCategory=2 suite = %d, want 6", got)
	}
	if got := len(o.mIntensive()); got != 2 {
		t.Errorf("mIntensive trim = %d, want 2", got)
	}
}

func TestStaticTables(t *testing.T) {
	for name, tbl := range map[string]*Table{
		"table1":   Table1(),
		"table2":   Table2(),
		"table3":   Table3(),
		"table4":   Table4(),
		"analytic": AnalyticTable(),
	} {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s has no rows", name)
		}
		if tbl.String() == "" {
			t.Errorf("%s renders empty", name)
		}
	}
	// Table 3 must advertise the Table 3 parameters.
	t3 := Table3().String()
	for _, want := range []string{"256", "3072", "768", "64"} {
		if !strings.Contains(t3, want) {
			t.Errorf("table3 missing %q:\n%s", want, t3)
		}
	}
	// Table 4 carries all 17 workloads.
	if got := len(Table4().Rows); got != 17 {
		t.Errorf("table4 rows = %d, want 17", got)
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	drivers := Experiments()
	want := []string{
		"table1", "table2", "table3", "table4", "analytic",
		"fig2", "fig4", "fig6", "fig7", "fig9", "fig10",
		"fig13", "fig14", "fig15", "fig16", "fig17", "headline",
		"gpmscale", "energy", "tension",
	}
	for _, id := range want {
		if _, ok := drivers[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(drivers) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(drivers), len(want))
	}
}

func TestFig4ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tbl, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("fig4 rows = %d, want 5 link settings", len(tbl.Rows))
	}
	// Column 1 is M-intensive relative performance; must be nonincreasing
	// as links shrink and equal 1.0 at 6 TB/s.
	prev := 2.0
	for i, row := range tbl.Rows {
		v := parseF(t, row[1])
		if i == 0 && v != 1 {
			t.Errorf("fig4 first row = %v, want 1.0 (self-relative)", v)
		}
		if v > prev+0.02 {
			t.Errorf("fig4 M-intensive not monotone at row %d: %v after %v", i, v, prev)
		}
		prev = v
	}
	// The 384 GB/s point must show substantial degradation.
	if last := parseF(t, tbl.Rows[4][1]); last > 0.85 {
		t.Errorf("fig4 at 384 GB/s = %v, want visible degradation", last)
	}
}

func TestFig15Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tbl, err := Fig15(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig15 rows = %d, want 3 (one per category at MaxPerCategory=1)", len(tbl.Rows))
	}
	// Sorted ascending.
	prev := 0.0
	for _, row := range tbl.Rows {
		v := parseF(t, row[2])
		if v < prev {
			t.Errorf("fig15 s-curve not sorted: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestHeadlineQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tbl, err := Headline(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("headline rows = %d, want 5", len(tbl.Rows))
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
