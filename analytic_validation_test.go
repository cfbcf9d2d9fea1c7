package mcmgpu

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"mcmgpu/internal/analytic"
	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/stats"
	"mcmgpu/internal/workload"
)

// This file is the contract between the closed-form estimator
// (internal/analytic.Estimator) and the event engine: every config family
// the experiments sweep, cross-checked metric by metric at the golden scale,
// under explicit error budgets and a rank-correlation budget on
// speedup-ordering families. CI runs it on every push; loosening a budget is
// a reviewable diff here, not a silent drift.

// valScale matches goldenOptions so the engine reference runs share the
// process-wide memo cache with the golden regression in the same test
// process: the expensive side of the comparison is mostly free.
const valScale = 0.05

// valWorkloads mirrors MaxPerCategory=1: the first application of each
// category, the same trio every golden experiment table reduces to.
func valWorkloads() []*workload.Spec {
	return []*workload.Spec{
		workload.MIntensive()[0], // NN-Conv
		workload.CIntensive()[0], // SP
		workload.Limited()[0],    // DWT
	}
}

// valFamily is one experiment-shaped sweep: a set of configs whose engine
// speedup ordering the estimator must reproduce (rank budget) in addition
// to the per-metric error budgets.
type valFamily struct {
	name    string
	configs []*config.Config
	// ranked enables the Spearman budget: families with a meaningful
	// monotone knob (link bandwidth, cache size, system generation).
	ranked bool
	// specs/scale override the default valWorkloads()/valScale cells.
	// The tension family needs both: its subject is the dense 2-D
	// workloads, and their scheduler/placement tension is a full-size
	// cache-capacity effect that valScale would dissolve.
	specs []*workload.Spec
	scale float64
}

func (f valFamily) workloads() []*workload.Spec {
	if f.specs != nil {
		return f.specs
	}
	return valWorkloads()
}

func (f valFamily) atScale() float64 {
	if f.scale > 0 {
		return f.scale
	}
	return valScale
}

func valFamilies() []valFamily {
	links := []float64{384, 768, 1536, 3072, 6144}
	var linkCfgs []*config.Config
	for _, l := range links {
		linkCfgs = append(linkCfgs, config.MCMWithLink(l))
	}
	l15Cfgs := []*config.Config{
		config.BaselineMCM(),
		config.WithL15(config.BaselineMCM(), 8*config.MB, config.AllocRemoteOnly),
		config.WithL15(config.BaselineMCM(), 16*config.MB, config.AllocRemoteOnly),
		config.WithL15(config.BaselineMCM(), 16*config.MB, config.AllocAll),
	}
	fig16 := []*config.Config{
		config.BaselineMCM(),
		config.WithScheduler(config.BaselineMCM(), config.SchedDistributed),
		config.WithPlacement(config.WithScheduler(config.BaselineMCM(), config.SchedDistributed), config.PlaceFirstTouch),
		config.OptimizedMCM16(),
	}
	gpms := []*config.Config{
		config.MustMCMGPMs(2),
		config.MustMCMGPMs(4),
		config.MustMCMGPMs(8),
	}
	monos := []*config.Config{
		config.MustMonolithic(64),
		config.MustMonolithic(128),
		config.MustMonolithic(256),
	}
	multi := []*config.Config{
		config.MultiGPUBaseline(),
		config.MultiGPUOptimized(),
	}
	tension := []*config.Config{
		config.BaselineMCM(),
		config.OptimizedMCM(),
		tiledRegionMCM(),
	}
	return []valFamily{
		{name: "link", configs: linkCfgs, ranked: true},
		{name: "l15", configs: l15Cfgs, ranked: true},
		{name: "fig16", configs: fig16, ranked: true},
		// gpm carries the metric budgets but not the rank budget: its engine
		// ordering at golden scale is set by effects outside a closed form's
		// reach — NN-Conv is issue-bound with perfect latency hiding (IPC
		// flat to 0.1% while the L1 hit rate swings 0.16..0.54), and the
		// SP/DWT drops at higher module counts come from latency-queueing
		// dynamics, not from any bandwidth or working-set balance.
		{name: "gpm", configs: gpms},
		{name: "mono", configs: monos, ranked: true},
		{name: "multigpu", configs: multi},
		// The scheduler/placement tension study: both dense 2-D workloads
		// at full size across baseline, DS+FT, and Tiled2D+region-aware.
		// Ranked: the estimator must order the policy tradeoff the way the
		// engine does (tiled > baseline > DS+FT on GEMM), since the
		// two-phase sweeps prune on exactly that ordering.
		{name: "tension", configs: tension, ranked: true,
			specs: workload.Dense(), scale: 1},
	}
}

// valBudgets are the CI-enforced error budgets, per metric. Rates are
// absolute error (they live in [0,1]); throughput and traffic metrics are
// relative error, judged on the per-family geometric mean so a single
// outlier cell cannot hide systematic drift — and the worst cell is bounded
// separately.
const (
	budgetIPCGeo     = 0.35 // geomean multiplicative IPC error per family
	budgetIPCWorst   = 2.6  // worst-cell multiplicative IPC error
	budgetRateAbs    = 0.30 // worst-cell |Δ| on L1/L2 hit rate, local fraction
	budgetTrafficGeo = 0.60 // geomean multiplicative error, wire + DRAM bytes
	budgetSpearman   = 0.90 // per (ranked family, workload) rank correlation
)

type valCell struct {
	family string
	cfg    *config.Config
	spec   *workload.Spec
	res    *core.Result
	est    *analytic.Estimate
}

// runValidation simulates and estimates every (family, config, workload)
// cell. Engine runs go through the shared memo cache at golden scale.
func runValidation(t *testing.T) []valCell {
	t.Helper()
	var cells []valCell
	for _, fam := range valFamilies() {
		specs := fam.workloads()
		opt := Options{Scale: fam.atScale(), Workers: 4, Audit: true}
		for _, cfg := range fam.configs {
			rs, err := opt.runSuite(cfg, specs)
			if err != nil {
				t.Fatalf("%s/%s: engine: %v", fam.name, cfg.Name, err)
			}
			e, err := analytic.NewEstimator(cfg)
			if err != nil {
				t.Fatalf("%s/%s: estimator: %v", fam.name, cfg.Name, err)
			}
			for _, s := range specs {
				est, err := e.Estimate(s, fam.atScale())
				if err != nil {
					t.Fatalf("%s/%s/%s: estimate: %v", fam.name, cfg.Name, s.Name, err)
				}
				cells = append(cells, valCell{fam.name, cfg, s, rs[s.Name], est})
			}
		}
	}
	return cells
}

// ratioErr returns the multiplicative error of est vs ref: max(r, 1/r) - 1,
// symmetric in over- and under-prediction.
func ratioErr(est, ref float64) float64 {
	if ref <= 0 || est <= 0 {
		if ref == est {
			return 0
		}
		return math.Inf(1)
	}
	r := est / ref
	if r < 1 {
		r = 1 / r
	}
	return r - 1
}

func TestAnalyticValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("validation simulates every config family; skipped in -short")
	}
	cells := runValidation(t)

	// Per-cell dump (visible with -v) and worst-cell budgets.
	type famKey struct{ family, workload string }
	ipcErrs := map[string][]float64{}     // family -> multiplicative IPC errors
	trafficErrs := map[string][]float64{} // family -> wire/DRAM byte errors
	engIPC := map[famKey][]float64{}
	estIPC := map[famKey][]float64{}
	for _, c := range cells {
		eIPC := ratioErr(c.est.IPC, c.res.IPC())
		ipcErrs[c.family] = append(ipcErrs[c.family], eIPC)
		if c.res.InterModuleBytes > 0 && c.est.InterModuleBytes > 0 {
			trafficErrs[c.family] = append(trafficErrs[c.family],
				ratioErr(c.est.InterModuleBytes, float64(c.res.InterModuleBytes)))
		}
		trafficErrs[c.family] = append(trafficErrs[c.family],
			ratioErr(c.est.DRAMBytes, float64(c.res.DRAMBytes)))
		k := famKey{c.family, c.spec.Name}
		engIPC[k] = append(engIPC[k], c.res.IPC())
		estIPC[k] = append(estIPC[k], c.est.IPC)

		t.Logf("%-8s %-28s %-6s ipc %6.2f/%6.2f  l1 %.2f/%.2f  l2 %.2f/%.2f  loc %.2f/%.2f  wire %.2e/%.2e  dram %.2e/%.2e  [%s]",
			c.family, c.cfg.Name, c.spec.Name,
			c.est.IPC, c.res.IPC(),
			c.est.L1HitRate, c.res.L1HitRate,
			c.est.L2HitRate, c.res.L2HitRate,
			c.est.LocalFraction, c.res.LocalFraction,
			c.est.InterModuleBytes, float64(c.res.InterModuleBytes),
			c.est.DRAMBytes, float64(c.res.DRAMBytes),
			c.est.Bottleneck)

		if eIPC > budgetIPCWorst {
			t.Errorf("%s/%s/%s: IPC error %.2f exceeds worst-cell budget %.2f (est %.2f, engine %.2f)",
				c.family, c.cfg.Name, c.spec.Name, eIPC, budgetIPCWorst, c.est.IPC, c.res.IPC())
		}
		for _, m := range []struct {
			name     string
			est, ref float64
		}{
			{"L1HitRate", c.est.L1HitRate, c.res.L1HitRate},
			{"L2HitRate", c.est.L2HitRate, c.res.L2HitRate},
			{"LocalFraction", c.est.LocalFraction, c.res.LocalFraction},
		} {
			if d := math.Abs(m.est - m.ref); d > budgetRateAbs {
				t.Errorf("%s/%s/%s: %s |Δ| = %.2f exceeds budget %.2f (est %.2f, engine %.2f)",
					c.family, c.cfg.Name, c.spec.Name, m.name, d, budgetRateAbs, m.est, m.ref)
			}
		}
	}

	// Geomean budgets per family.
	geo := func(errs []float64) float64 {
		var s float64
		for _, e := range errs {
			s += math.Log1p(e)
		}
		return math.Expm1(s / float64(len(errs)))
	}
	for fam, errs := range ipcErrs {
		if g := geo(errs); g > budgetIPCGeo {
			t.Errorf("family %s: geomean IPC error %.2f exceeds budget %.2f", fam, g, budgetIPCGeo)
		} else {
			t.Logf("family %-8s geomean IPC error %.2f (budget %.2f)", fam, g, budgetIPCGeo)
		}
	}
	for fam, errs := range trafficErrs {
		if g := geo(errs); g > budgetTrafficGeo {
			t.Errorf("family %s: geomean traffic error %.2f exceeds budget %.2f", fam, g, budgetTrafficGeo)
		}
	}

	// Rank budget: each ranked family is one speedup-ordering table — per
	// workload, IPC normalized by the family's first config (the table's
	// baseline column), then all of the table's cells ranked together.
	// The estimator must reproduce the engine's ordering of that table:
	// Spearman >= budget on the pooled speedups. Speedups are quantized to
	// 2% buckets (the engine's cell-to-cell noise floor at golden scale)
	// on both sides, so statistically indistinguishable cells tie instead
	// of demanding a coin-flip ordering; a table the engine leaves
	// entirely within one bucket would be knob-insensitive and is skipped.
	for _, fam := range valFamilies() {
		if !fam.ranked {
			continue
		}
		var eng, est []float64
		for _, w := range fam.workloads() {
			k := famKey{fam.name, w.Name}
			if len(engIPC[k]) < 2 || engIPC[k][0] <= 0 || estIPC[k][0] <= 0 {
				continue
			}
			for i := range engIPC[k] {
				eng = append(eng, engIPC[k][i]/engIPC[k][0])
				est = append(est, estIPC[k][i]/estIPC[k][0])
			}
		}
		engQ := quantizeLog(eng, rankQuantum)
		estQ := quantizeLog(est, rankQuantum)
		if allEqual(engQ) {
			t.Logf("family %s: rank skipped (engine speedups flat within %.0f%%)", fam.name, rankQuantum*100)
			continue
		}
		rho, err := spearman(estQ, engQ)
		if err != nil {
			t.Errorf("family %s: engine orders the table but estimator is flat: %v\n  est speedups %v\n  eng speedups %v",
				fam.name, err, fmtF(est), fmtF(eng))
			continue
		}
		if rho < budgetSpearman {
			t.Errorf("family %s: Spearman %.2f below budget %.2f\n  est speedups %v\n  eng speedups %v",
				fam.name, rho, budgetSpearman, fmtF(est), fmtF(eng))
		} else {
			t.Logf("family %-8s Spearman %.3f over %d cells", fam.name, rho, len(eng))
		}
	}
}

// rankQuantum is the relative resolution of the rank comparison: cells
// whose IPC differs by less than this are treated as tied.
const rankQuantum = 0.02

// quantizeLog buckets values multiplicatively: equal buckets = tied ranks.
func quantizeLog(xs []float64, q float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x > 0 {
			out[i] = math.Round(math.Log(x) / math.Log1p(q))
		}
	}
	return out
}

// spearman returns the Spearman rank-correlation coefficient between a and
// b: the Pearson correlation of their rank vectors, with ties assigned
// average ranks. It is the estimator-validation metric — "does the analytic
// model order configurations the way the engine does" — so it errors on
// inputs where rank order is undefined: mismatched lengths, fewer than two
// samples, or a constant vector (zero rank variance).
func spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("Spearman of mismatched lengths %d and %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("Spearman needs at least 2 samples, got %d", len(a))
	}
	ra, err := ranks(a)
	if err != nil {
		return 0, err
	}
	rb, err := ranks(b)
	if err != nil {
		return 0, err
	}
	ma, mb := stats.Mean(ra), stats.Mean(rb)
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	return cov / math.Sqrt(va*vb), nil
}

// ranks returns average ranks (1-based) of xs, erroring on NaN samples and
// on constant vectors, whose rank variance is zero and whose correlation is
// therefore undefined.
func ranks(xs []float64) ([]float64, error) {
	idx := make([]int, len(xs))
	for i := range idx {
		if math.IsNaN(xs[i]) {
			return nil, fmt.Errorf("Spearman of NaN sample (element %d)", i)
		}
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	if xs[idx[0]] == xs[idx[len(idx)-1]] {
		return nil, fmt.Errorf("Spearman of constant vector (all samples = %v)", xs[idx[0]])
	}
	return out, nil
}

func allEqual(xs []float64) bool {
	for _, x := range xs[1:] {
		if x != xs[0] {
			return false
		}
	}
	return true
}

func fmtF(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", x)
	}
	return s + "]"
}
