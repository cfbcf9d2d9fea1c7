package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/workload"
)

const (
	suiteScale   = 0.1
	suiteWarmup  = 4
	suiteAudited = 6
	// paperSpeedup is the paper's headline: the optimized MCM-GPU's
	// geomean speedup over the baseline MCM-GPU.
	paperSpeedup = 1.228
	// maxPasses caps a closed loop however fast the cells run.
	maxPasses = 1000
)

var suiteSystems = []func() *config.Config{config.BaselineMCM, config.OptimizedMCM}

// planCells builds every (app, system) cell, app-major, and builds one
// machine per system to validate it: the set-up a user pays before the
// first simulation.
func planCells(apps []*workload.Spec, systems []func() *config.Config, scale float64, seed uint64) ([]cell, error) {
	for _, sys := range systems {
		if _, err := core.New(sys()); err != nil {
			return nil, err
		}
	}
	var cells []cell
	for _, app := range apps {
		spec := seededSpec(app, scale, seed)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		for _, sys := range systems {
			cells = append(cells, cell{cfg: sys(), spec: spec})
		}
	}
	return cells, nil
}

// setupReps is how many set-ups a run measures at least; it reports their
// median, since one set-up takes milliseconds.
const setupReps = 21

// opRecord is one timed operation of a closed loop.
type opRecord struct {
	pass, idx int
	dur, cpu  time.Duration // wall and process CPU time
	res       *core.Result
	err       error
}

// loopRun is what a closed loop measured.
type loopRun struct {
	recs    []opRecord
	setup   time.Duration // median of the set-ups measured between cells
	wall    time.Duration // from the first start to the last finish
	peakRSS float64       // MB, the highest of any one cell's
}

// closedLoop is one client running op on every cell of a fresh seeded
// shuffle, pass after pass, each cell as soon as the previous one finishes.
// One client, not one per CPU: on a small shared host two simulations slow
// each other by a fifth, and by an amount that changes from run to run.
// It measures whole passes, so every seed measures the same mix of
// cells: at least minPasses, and then another only while the longest pass
// so far would still end before the deadline.
//
// Each cell, and each set-up, starts on a collected heap with no memory
// held back from the OS, as in a fresh process. Otherwise when the
// collector and the runtime's background scavenger happened to run would
// decide part of its time, whether it pays page faults, and the peak
// memory. The peak is the highest of any one cell's, each measured from
// its start; over the whole process it took one of two values from run to
// run.
//
// Between cells, evenly over the minimum passes, the loop times setup at
// least setupReps times. Spread over the run, the set-ups sample the same
// stretch of host time as the cells; taken back to back before them, they
// all landed in the same fraction of a second, and runs differed by half.
func closedLoop(e *env, n, minPasses int, rng *rand.Rand, setup func() error, op func(pass, idx int) opRecord) (loopRun, error) {
	var run loopRun
	every := max(1, n*minPasses/setupReps)
	var setups []float64
	var longest time.Duration
	start := time.Now()
	deadline := start.Add(e.seconds)
	for pass := 0; pass < maxPasses; pass++ {
		if pass >= minPasses && time.Now().Add(longest).After(deadline) {
			break
		}
		t0 := time.Now()
		for _, idx := range rng.Perm(n) {
			if len(run.recs)%every == 0 {
				debug.FreeOSMemory()
				t1 := time.Now()
				if err := setup(); err != nil {
					return run, err
				}
				setups = append(setups, float64(time.Since(t1)))
			}
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return run, err
			}
			cpu0 := selfCPU()
			rec := op(pass, idx)
			rec.cpu = selfCPU() - cpu0
			peak, err := procPeakRSS(os.Getpid())
			if err != nil {
				return run, err
			}
			run.peakRSS = max(run.peakRSS, peak)
			run.recs = append(run.recs, rec)
		}
		longest = max(longest, time.Since(t0))
	}
	run.setup = time.Duration(quantile(setups, 0.5))
	run.wall = time.Since(start)
	return run, nil
}

// verifyLoop checks every record against the first successful result of
// its cell, counts failures, and returns the reference results by cell.
func verifyLoop(r *report, cells []cell, recs []opRecord) []*core.Result {
	ref := make([]*core.Result, len(cells))
	for _, rec := range recs {
		r.attempted++
		switch {
		case rec.err != nil:
			r.opFailed("%v", rec.err)
		case rec.res.ClampedEvents != 0:
			r.opFailed("%v clamped %d events", cells[rec.idx], rec.res.ClampedEvents)
		case ref[rec.idx] == nil:
			ref[rec.idx] = rec.res
		case !sameResult(ref[rec.idx], rec.res):
			r.opFailed("%v: pass %d result differs from an earlier pass", cells[rec.idx], rec.pass)
		}
	}
	for i, res := range ref {
		r.check(res != nil, "%v never completed", cells[i])
	}
	return ref
}

// setLoopMetrics reports the end-to-end metrics of a closed loop, over
// the cells' own time: the loop's housekeeping between them is the
// benchmark's, not the simulator's.
func setLoopMetrics(r *report, run loopRun) {
	n := len(run.recs)
	lat := make([]float64, n)
	var busy, cpu time.Duration
	for i, rec := range run.recs {
		lat[i] = ms(rec.dur)
		busy += rec.dur
		cpu += rec.cpu
	}
	r.set("setup_s", run.setup.Seconds())
	r.set("op_ms_p50", quantile(lat, 0.5))
	r.set("op_ms_tail", quantile(lat, tailQuantile(n)))
	r.set("ops_per_s", float64(n)/busy.Seconds())
	r.set("cpu_ms_per_op", ms(cpu)/float64(n))
	r.set("peak_rss_mb", run.peakRSS)
	fmt.Printf("ops: %d in %.2fs; op_ms_tail is p%.0f\n", n, run.wall.Seconds(), 100*tailQuantile(n))
}

// runSuite is the suite workload: every paper app on the baseline and the
// optimized MCM-GPU, in a closed loop of whole seeded-shuffle passes.
func runSuite(e *env) (*report, error) {
	r := newReport()
	apps, scale := workload.Suite(), suiteScale
	if e.quick {
		apps, scale = apps[:6], 0.02
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	cells, err := planCells(apps, suiteSystems, scale, e.seed)
	if err != nil {
		return nil, err
	}

	// Warm-up: page in code and grow the heap before timing.
	var warm []opRecord
	for _, i := range rng.Perm(len(cells))[:suiteWarmup] {
		res, err := e.simulate(0, cells[i], core.RunOptions{})
		warm = append(warm, opRecord{pass: -1, idx: i, res: res, err: err})
	}

	prof, err := e.startProfile()
	if err != nil {
		return nil, err
	}
	// Two passes at least: 192 timed cells put ten beyond the p90 tail.
	plan := func() error { _, err := planCells(apps, suiteSystems, scale, e.seed); return err }
	loop, err := closedLoop(e, len(cells), 2, rng, plan, func(pass, idx int) opRecord {
		id := e.tr.id()
		t0 := time.Now()
		res, err := e.simulate(id, cells[idx], core.RunOptions{})
		d := time.Since(t0)
		e.tr.add(id, 0, 0, "cell", t0, t0.Add(d))
		return opRecord{pass: pass, idx: idx, dur: d, res: res, err: err}
	})
	if err != nil {
		return nil, err
	}
	if prof != nil {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	setLoopMetrics(r, loop)

	ref := verifyLoop(r, cells, append(warm, loop.recs...))
	auditCells(e, r, cells, ref, rng)

	var base, opt []*core.Result
	for i := 0; i+1 < len(ref); i += 2 {
		if ref[i] != nil && ref[i+1] != nil {
			base, opt = append(base, ref[i]), append(opt, ref[i+1])
		}
	}
	g, err := speedupGeomean(base, opt)
	if err != nil {
		return nil, err
	}
	if !e.quick {
		r.check(g > 1, "optimized MCM geomean speedup %.4f is not above 1", g)
	}
	r.set("model.speedup_x", g)
	r.set("model.paper_err_pp", 100*math.Abs(g-paperSpeedup))
	fmt.Printf("geomean speedup optimized/baseline: %.4f (paper %.3f)\n", g, paperSpeedup)

	if e.tr != nil {
		return r, finishTrace(e, r, prof, loop.wall, nonNil(ref))
	}
	return r, nil
}

// auditCells reruns seed-chosen cells with the invariant auditor on: each
// must finish without violations and match its unaudited result.
func auditCells(e *env, r *report, cells []cell, ref []*core.Result, rng *rand.Rand) {
	pick := rng.Perm(len(cells))[:min(suiteAudited, len(cells))]
	errs := make([]error, len(pick))
	res := make([]*core.Result, len(pick))
	parallel(e.workers, len(pick), func(k int) {
		res[k], errs[k] = e.simulate(0, cells[pick[k]], core.RunOptions{Audit: true})
	})
	for k, i := range pick {
		r.attempted++
		switch {
		case errs[k] != nil:
			r.opFailed("audited rerun: %v", errs[k])
		case ref[i] != nil && !sameResult(ref[i], res[k]):
			r.opFailed("audited rerun of %v differs from the unaudited result", cells[i])
		}
	}
}

func nonNil(rs []*core.Result) []*core.Result {
	var out []*core.Result
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}
