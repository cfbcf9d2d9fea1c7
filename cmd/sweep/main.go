// Command sweep runs a two-dimensional design-space sweep over inter-GPM
// link bandwidth and L1.5 capacity — the two hardware levers Sections 3.3
// and 5.1 of the paper negotiate — and emits a CSV grid of geomean speedups
// over the baseline MCM-GPU. It answers the practical question the paper's
// conclusion implies: how much link bandwidth can architectural locality
// buy back?
//
// The sweep is two-phase. Phase 1 scores every grid cell with the
// closed-form analytic estimator (internal/analytic) — microseconds per
// cell, no engine events. Phase 2 re-simulates only the cells that matter:
// the analytic Pareto frontier over (link bandwidth cost, predicted
// speedup), topped up with the best-scoring remainder to a budget set by
// -phase2-frac (default 25% of the grid) or -refine. Estimated-only cells
// render with a "~" prefix so a reader can always tell a prediction from a
// measurement; -analytic-only skips phase 2 entirely and -phase2-frac 1
// restores the legacy simulate-everything behavior.
//
// Phase 2 is submitted as one job list to the parallel runner (baseline
// suite first), so simulations fan out across -j workers and the memoized
// run cache deduplicates repeats. Output is byte-identical for any -j.
// With -store DIR the runner gains a durable tier: cells any prior process
// simulated are served from disk, fresh ones are persisted. With -server
// URL phase 2 is executed remotely by a shared mcmserve instance instead;
// a comma-separated URL list forms a fault-tolerant pool — jobs shard
// across ready backends, a dead or draining backend's shard fails over
// (idempotent by content-derived job identity), per-backend circuit
// breakers route around repeat offenders, and straggling result fetches
// are hedged to a second backend. SIGINT/SIGTERM cancels the sweep
// promptly, local or remote, including mid-backoff sleeps.
//
// Usage:
//
//	sweep                                # two-phase, default grid
//	sweep -analytic-only                 # phase 1 only: no engine events
//	sweep -refine 4                      # simulate the frontier + top cells, >= 4 total
//	sweep -phase2-frac 1 -scale 0.5      # legacy full simulation
//	sweep -store /var/lib/mcmgpu         # durable cross-process result reuse
//	sweep -server http://mcmserve:8037   # run phase 2 on the shared service
//	sweep -server http://a:8037,http://b:8037,http://c:8037   # fault-tolerant pool
//	sweep -workloads m-intensive -csv out.csv -bench-json BENCH_sweep.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mcmgpu/internal/analytic"
	"mcmgpu/internal/cli"
	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/report"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore/client"
	"mcmgpu/internal/stats"
	"mcmgpu/internal/workload"
)

func main() { os.Exit(run()) }

// run is main with an exit code instead of os.Exit calls, so every defer —
// the gzip'd -metrics writer and the -csv file in particular — gets to
// Close, and a Close failure (the way a full disk reports a truncated
// stream) fails the run loudly.
func run() (code int) {
	sh := cli.Register(flag.CommandLine, "sweep")
	var (
		links     = flag.String("links", "384,768,1536,3072", "comma-separated inter-GPM link bandwidths (GB/s)")
		l15s      = flag.String("l15", "0,8,16", "comma-separated total L1.5 capacities (MB, 0 = none)")
		wl        = flag.String("workloads", "all", "workload selection (all, m-intensive, c-intensive, limited, dense, or one workload name)")
		opts      = flag.Bool("optimized", true, "apply distributed scheduling + first touch at every grid point")
		tiled     = flag.Bool("tiled", false, "apply tiled 2-D scheduling + region-aware placement at every grid point instead of -optimized (the dense-workload pairing; see -workloads dense)")
		jobs      = flag.Int("j", 0, "parallel simulation jobs (0 = GOMAXPROCS, 1 = sequential)")
		nocache   = flag.Bool("nocache", false, "disable the memoized run cache")
		csvOut    = flag.String("csv", "", "write CSV to this file instead of stdout")
		anOnly    = flag.Bool("analytic-only", false, "phase 1 only: score the whole grid analytically, run no simulations")
		refine    = flag.Int("refine", 0, "number of cells to re-simulate in phase 2 (0 = use -phase2-frac); frontier cells are simulated first")
		p2Frac    = flag.Float64("phase2-frac", 0.25, "fraction of grid cells to re-simulate in phase 2 (1 = simulate everything)")
		benchJSON = flag.String("bench-json", "", "write phase throughput numbers (cells/sec analytic vs cycle-level) to this JSON file")
		server    = flag.String("server", "", "comma-separated mcmserve URLs: run phase 2 remotely; more than one URL forms a fault-tolerant pool")
	)
	flag.Parse()

	// One context covers the whole sweep: SIGINT/SIGTERM cancels in-flight
	// simulations (local or remote) AND any retry-backoff sleep the client
	// is in — a canceled sweep exits promptly, it does not finish a nap.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 1
	}
	warnf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	}
	if err := sh.Validate(); err != nil {
		return fail(err)
	}
	stopProf, err := sh.Profile()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if stopProf() != nil {
			code = 1
		}
	}()

	linkVals, err := parseFloats(*links)
	if err != nil {
		return fail(err)
	}
	l15Vals, err := parseInts(*l15s)
	if err != nil {
		return fail(err)
	}
	for _, mb := range l15Vals {
		if mb < 0 {
			return fail(fmt.Errorf("-l15 %d: an L1.5 capacity cannot be negative (0 = none)", mb))
		}
	}
	specs, err := workload.Select(*wl)
	if err != nil {
		return fail(err)
	}
	if *p2Frac < 0 || *p2Frac > 1 || math.IsNaN(*p2Frac) {
		return fail(fmt.Errorf("-phase2-frac %v out of range [0,1]", *p2Frac))
	}
	if *refine < 0 {
		return fail(fmt.Errorf("-refine %d must be >= 0", *refine))
	}

	cfgs := buildGrid(l15Vals, linkVals, *opts, *tiled)
	base := config.BaselineMCM()

	var check func(*runner.Runner) error
	if *server != "" {
		// The remote server cannot reproduce local-only run shaping, so
		// refuse combinations that would silently change results.
		check = func(r *runner.Runner) error {
			if sh.Metrics != "" {
				return errors.New("-server does not support -metrics (the service does not sample); drop one")
			}
			if r.Fault.Enabled() && !r.Fault.IsStore() {
				return errors.New("-server cannot apply a local simulation fault plan; unset MCMGPU_FAULT or run locally")
			}
			return nil
		}
	}
	r, closeRun, err := sh.Build(*nocache, check)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if closeRun() != nil {
			code = 1
		}
	}()
	r.Workers = *jobs
	r.Limits.Ctx = ctx

	// Phase 1: score the whole grid analytically. The baseline suite rides
	// in the same estimate list so predicted speedups and predicted cell
	// scores come from one pass.
	p1Start := time.Now()
	scores, estSpeedups, err := scoreGrid(r, base, cfgs, specs, sh.Scale)
	if err != nil {
		return fail(err)
	}
	p1Dur := time.Since(p1Start)
	fmt.Fprintf(os.Stderr, "sweep: phase 1 scored %d cells analytically in %v\n",
		len(cfgs), p1Dur.Round(time.Microsecond))

	// Select phase 2: the analytic Pareto frontier over (link cost,
	// predicted speedup) plus the best-scoring remainder up to the budget.
	costs := make([]float64, len(cfgs))
	for i := range cfgs {
		costs[i] = linkVals[i%len(linkVals)]
	}
	frontier := paretoFrontier(costs, scores, frontierTol)
	budget := phase2Budget(len(cfgs), *refine, *p2Frac)
	simulate := selectCells(scores, frontier, budget)
	if *anOnly {
		simulate = nil
	}

	// Phase 2: one flat job list — baseline suite first, then each selected
	// cell's suite — through the event engine, honoring the same limits,
	// fault plan, audit, and metrics settings cmd/experiments applies.
	var (
		simSpeedups = map[int][]float64{}
		failedCells = false
		p2Dur       time.Duration
	)
	if len(simulate) > 0 {
		var jobList []runner.Job
		addSuite := func(cfg *config.Config) {
			for _, s := range specs {
				jobList = append(jobList, runner.Job{Config: cfg, Spec: s, Scale: sh.Scale})
			}
		}
		addSuite(base)
		for _, ci := range simulate {
			addSuite(cfgs[ci])
		}
		p2Start := time.Now()
		var (
			results []*core.Result
			err     error
		)
		if *server != "" {
			// The local runner enforces -timeout through limits; the
			// remote phase gets the same deadline on its context.
			rctx := ctx
			if sh.Timeout > 0 {
				var cancel context.CancelFunc
				rctx, cancel = context.WithDeadline(ctx, r.Limits.WallDeadline)
				defer cancel()
			}
			results, err = runRemote(rctx, *server, jobList, sh.MaxEvents, sh.Audit, warnf)
			if errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("-timeout %v: %w", sh.Timeout, err)
			}
		} else {
			results, err = r.Run(jobList)
		}
		p2Dur = time.Since(p2Start)
		if err != nil {
			var jerrs runner.JobErrors
			if !sh.KeepGoing || !errors.As(err, &jerrs) {
				return fail(err)
			}
			failedCells = true
			for _, je := range jerrs {
				fmt.Fprintln(os.Stderr, "sweep: warning: cell failed:", je)
			}
		}
		n := len(specs)
		baseRes := results[:n]
		for k, ci := range simulate {
			rs := results[(k+1)*n : (k+2)*n]
			var sp []float64
			for i := range specs {
				// A nil result is a failed job in -keep-going mode; skip
				// the workload for this grid point.
				if rs[i] == nil || baseRes[i] == nil {
					continue
				}
				sp = append(sp, rs[i].SpeedupOver(baseRes[i]))
			}
			simSpeedups[ci] = sp
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: phase 2 simulated %d/%d cells (%.1f%%)\n",
		len(simulate), len(cfgs), 100*float64(len(simulate))/float64(len(cfgs)))

	out := os.Stdout
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return fail(err)
		}
		defer func() {
			// Close reports what Write buffered: a full disk surfaces here.
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				code = 1
			}
		}()
		out = f
	}
	if !renderGrid(out, l15Vals, linkVals, estSpeedups, simSpeedups) {
		failedCells = true
	}

	if *benchJSON != "" {
		if err := writeBench(*benchJSON, benchReport{
			GridCells:      len(cfgs),
			Workloads:      len(specs),
			SimulatedCells: len(simulate),
			AnalyticOnly:   *anOnly,
			Phase1Seconds:  p1Dur.Seconds(),
			Phase2Seconds:  p2Dur.Seconds(),
		}); err != nil {
			return fail(err)
		}
	}
	if failedCells {
		fmt.Fprintln(os.Stderr, "sweep: completed with failed cells")
		return 1
	}
	return code
}

// runRemote executes the phase 2 job list on one or more shared mcmserve
// backends (comma-separated URLs) through a fault-tolerant pool. Job
// identity is content-derived on the server, so resubmitting a shard after
// a backend dies is idempotent, and cells any client already ran come back
// from the service's durable store without a simulation. Failed or
// canceled jobs map to nil result slots plus a runner.JobErrors — exactly
// what the local r.Run contract gives -keep-going; a poisoned job's error
// names the cell and its deterministic failure so the operator knows
// retrying elsewhere is pointless.
func runRemote(ctx context.Context, servers string, jobList []runner.Job, maxEvents uint64, audit bool, warnf func(string, ...interface{})) ([]*core.Result, error) {
	m := client.Manifest{
		MaxEvents: maxEvents,
		Audit:     audit,
	}
	for _, j := range jobList {
		var buf bytes.Buffer
		if err := j.Config.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("encode config %s: %w", j.Config.Name, err)
		}
		m.Jobs = append(m.Jobs, client.JobRequest{
			System:   json.RawMessage(buf.Bytes()),
			Workload: j.Spec.Name,
			Scale:    j.Scale,
		})
	}
	var urls []string
	for _, u := range strings.Split(servers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, errors.New("-server has no URLs")
	}
	pool := client.NewPool(urls, &client.Client{Logf: warnf})
	results, statuses, err := pool.Run(ctx, m)
	if ps := pool.Stats(); ps.Failovers+ps.Resubmits+ps.Hedged > 0 {
		warnf("pool: %d backend failovers, %d resubmitted jobs, %d hedged result fetches",
			ps.Failovers, ps.Resubmits, ps.Hedged)
	}
	if err != nil {
		return nil, err
	}
	var jerrs runner.JobErrors
	for i, st := range statuses {
		if st.State == client.StateDone {
			continue
		}
		msg := st.Error
		if msg == "" {
			msg = st.State
		}
		if st.Poisoned {
			msg = "poisoned after a deterministic failure: " + msg
		}
		jerrs = append(jerrs, &runner.JobError{
			Index:    i,
			Workload: jobList[i].Spec.Name,
			Config:   jobList[i].Config.Name,
			Err:      fmt.Errorf("remote job %s: %s", st.ID, msg),
		})
	}
	if len(jerrs) > 0 {
		return results, jerrs
	}
	return results, nil
}

// buildGrid builds every grid-point configuration, row-major over
// (l15, link), so cell index ci maps to row ci/len(links), col ci%len(links).
func buildGrid(l15Vals []int, linkVals []float64, optimized, tiled bool) []*config.Config {
	var cfgs []*config.Config
	for _, mb := range l15Vals {
		for _, link := range linkVals {
			cfg := config.MCMWithLink(link)
			if mb > 0 {
				keep := cfg.Link.GBps
				cfg = config.WithL15(cfg, mb*config.MB, config.AllocRemoteOnly)
				cfg.Link.GBps = keep
			}
			switch {
			case tiled:
				cfg.Scheduler = config.SchedTiled2D
				cfg.Placement = config.PlaceRegionAware
			case optimized:
				cfg.Scheduler = config.SchedDistributed
				cfg.Placement = config.PlaceFirstTouch
			}
			cfg.Name = fmt.Sprintf("sweep-l15%dMB-link%g", mb, link)
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// scoreGrid runs the analytic phase: one estimate list covering the
// baseline suite plus every cell's suite. It returns the per-cell geomean
// predicted speedup (the phase 2 selection score) and the per-cell
// per-workload predicted speedups (what -analytic-only and unsimulated
// cells render).
func scoreGrid(r *runner.Runner, base *config.Config, cfgs []*config.Config, specs []*workload.Spec, scale float64) ([]float64, [][]float64, error) {
	var jobList []runner.Job
	addSuite := func(cfg *config.Config) {
		for _, s := range specs {
			jobList = append(jobList, runner.Job{Config: cfg, Spec: s, Scale: scale})
		}
	}
	addSuite(base)
	for _, cfg := range cfgs {
		addSuite(cfg)
	}
	ests, err := r.Estimates(jobList)
	if err != nil {
		return nil, nil, err
	}
	n := len(specs)
	baseEst := ests[:n]
	scores := make([]float64, len(cfgs))
	speedups := make([][]float64, len(cfgs))
	for ci := range cfgs {
		cell := ests[(ci+1)*n : (ci+2)*n]
		sp := make([]float64, n)
		for i := range specs {
			sp[i] = estSpeedup(cell[i], baseEst[i])
		}
		speedups[ci] = sp
		g, gerr := stats.GeoMean(sp)
		if gerr != nil {
			return nil, nil, fmt.Errorf("cell %s: %w", cfgs[ci].Name, gerr)
		}
		scores[ci] = g
	}
	return scores, speedups, nil
}

// estSpeedup is the analytic analogue of core.Result.SpeedupOver: predicted
// baseline cycles over predicted cell cycles.
func estSpeedup(cell, base *analytic.Estimate) float64 {
	if cell == nil || base == nil || cell.Cycles <= 0 {
		return 0
	}
	return base.Cycles / cell.Cycles
}

// frontierTol is the relative score improvement below which a costlier cell
// does not earn a frontier spot. The paper's own saturation argument
// motivates it: link bandwidth past the balance point "yields no additional
// performance", so a sub-1% speedup bump at double the link cost is
// saturation noise, not a design point. The same tolerance applies to
// analytic and simulated scores, so the two frontiers are compared like for
// like.
const frontierTol = 0.012

// paretoFrontier returns the indices of the staircase Pareto frontier over
// (minimize cost, maximize score), sorted by ascending cost: a cell is on
// the frontier iff it beats every cheaper-or-equal cell's score by more
// than the relative tolerance. Ties keep the lowest index, so the frontier
// is deterministic for any input order.
func paretoFrontier(costs, scores []float64, tol float64) []int {
	idx := make([]int, len(costs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if costs[idx[a]] != costs[idx[b]] {
			return costs[idx[a]] < costs[idx[b]]
		}
		return scores[idx[a]] > scores[idx[b]]
	})
	var frontier []int
	best := math.Inf(-1)
	for k, i := range idx {
		// Within one cost tier only the best score survives; the sort put
		// it first in the tier.
		if k > 0 && costs[idx[k-1]] == costs[i] {
			continue
		}
		if scores[i] > best*(1+tol) {
			frontier = append(frontier, i)
			best = scores[i]
		}
	}
	return frontier
}

// phase2Budget resolves how many cells phase 2 simulates: -refine when
// given, otherwise ceil(frac*cells), clamped to the grid. The budget is a
// hard cap — it is how the "engine events for at most this share of the
// grid" guarantee is kept — so an unusually wide analytic frontier is
// simulated best-cells-first rather than inflating the budget.
func phase2Budget(cells, refine int, frac float64) int {
	budget := int(math.Ceil(frac * float64(cells)))
	if refine > 0 {
		budget = refine
	}
	if budget > cells {
		budget = cells
	}
	return budget
}

// selectCells picks the phase 2 cells: frontier cells first (best score
// first), then the best-scoring remainder, until the budget is spent. The
// result is sorted by cell index so the phase 2 job list — and therefore
// the output — is deterministic.
func selectCells(scores []float64, frontier []int, budget int) []int {
	onFrontier := map[int]bool{}
	for _, i := range frontier {
		onFrontier[i] = true
	}
	ranked := append([]int(nil), frontier...)
	sort.SliceStable(ranked, func(a, b int) bool { return scores[ranked[a]] > scores[ranked[b]] })
	rest := make([]int, 0, len(scores))
	for i := range scores {
		if !onFrontier[i] {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool { return scores[rest[a]] > scores[rest[b]] })
	ranked = append(ranked, rest...)
	if budget < len(ranked) {
		ranked = ranked[:budget]
	}
	out := append([]int(nil), ranked...)
	sort.Ints(out)
	return out
}

// renderGrid writes the CSV. Simulated cells print their measured geomean
// speedup; estimated-only cells print the predicted one with a "~" prefix;
// a simulated cell whose every workload failed (-keep-going) prints ERR.
// Returns false when any cell rendered ERR.
func renderGrid(out io.Writer, l15Vals []int, linkVals []float64, est [][]float64, sim map[int][]float64) bool {
	ok := true
	fmt.Fprintf(out, "l15MB\\linkGBps")
	for _, l := range linkVals {
		fmt.Fprintf(out, ",%g", l)
	}
	fmt.Fprintln(out)
	for row, mb := range l15Vals {
		fmt.Fprintf(out, "%d", mb)
		for col := range linkVals {
			ci := row*len(linkVals) + col
			if sp, simulated := sim[ci]; simulated {
				g, gerr := stats.GeoMean(sp)
				if gerr != nil || len(sp) == 0 {
					fmt.Fprintf(out, ",%s", report.ErrCell)
					ok = false
					continue
				}
				fmt.Fprintf(out, ",%.4f", g)
				continue
			}
			g, gerr := stats.GeoMean(est[ci])
			if gerr != nil {
				fmt.Fprintf(out, ",%s", report.ErrCell)
				ok = false
				continue
			}
			fmt.Fprintf(out, ",~%.4f", g)
		}
		fmt.Fprintln(out)
	}
	return ok
}

// benchReport is the -bench-json payload: enough to recompute the
// analytic-vs-cycle-level throughput ratio the fast path exists for.
type benchReport struct {
	GridCells      int     `json:"grid_cells"`
	Workloads      int     `json:"workloads"`
	SimulatedCells int     `json:"simulated_cells"`
	AnalyticOnly   bool    `json:"analytic_only"`
	Phase1Seconds  float64 `json:"phase1_seconds"`
	Phase2Seconds  float64 `json:"phase2_seconds"`
	// Derived rates, cells per second; ThroughputRatio is analytic over
	// cycle-level (0 when phase 2 did not run).
	AnalyticCellsPerSec float64 `json:"analytic_cells_per_sec"`
	SimCellsPerSec      float64 `json:"sim_cells_per_sec"`
	ThroughputRatio     float64 `json:"throughput_ratio"`
}

func writeBench(path string, b benchReport) error {
	if b.Phase1Seconds > 0 {
		b.AnalyticCellsPerSec = float64(b.GridCells) / b.Phase1Seconds
	}
	if b.Phase2Seconds > 0 && b.SimulatedCells > 0 {
		b.SimCellsPerSec = float64(b.SimulatedCells) / b.Phase2Seconds
		if b.SimCellsPerSec > 0 {
			b.ThroughputRatio = b.AnalyticCellsPerSec / b.SimCellsPerSec
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
