package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/metrics"
	"mcmgpu/internal/workload"
)

const (
	observeInterval = 64
	// observeMinRows is the flat-row count the mcmstat stage aggregates,
	// the size of the stat smoke test in CI.
	observeMinRows = 1_000_000
	statGroup      = "config,workload,kind,name"
	statRuns       = 3
)

var observeSystems = []func() *config.Config{config.BaselineMCM, config.OptimizedMCM, config.TiledRegionMCM}

// runObserve is the observe workload: the dense cells with the metrics
// sampler attached, then the sampled stream aggregated by mcmstat.
func runObserve(e *env) (*report, error) {
	r := newReport()
	scale := 1.0
	if e.quick {
		scale = 0.05
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	cells, err := planCells(workload.Dense(), observeSystems, scale, e.seed)
	if err != nil {
		return nil, err
	}

	// Warm-up pass, unsampled: the reference every sampled result must equal.
	ref, _, err := unsampledPass(e, cells)
	if err != nil {
		return nil, err
	}
	r.attempted += len(cells)

	dir := filepath.Join(e.work, "streams")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	prof, err := e.startProfile()
	if err != nil {
		return nil, err
	}
	plan := func() error { _, err := planCells(workload.Dense(), observeSystems, scale, e.seed); return err }
	loop, err := closedLoop(e, len(cells), 2, rng, plan, func(pass, idx int) opRecord {
		id := e.tr.id()
		t0 := time.Now()
		res, err := sampledRun(e, id, cells[idx], streamPath(dir, pass, idx))
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

	for _, rec := range loop.recs {
		r.attempted++
		switch {
		case rec.err != nil:
			r.opFailed("%v", rec.err)
		case !sameResult(ref[rec.idx], rec.res):
			r.opFailed("%v: sampled result (pass %d) differs from the unsampled run", cells[rec.idx], rec.pass)
		case rec.pass > 0:
			os.Remove(streamPath(dir, rec.pass, rec.idx))
		}
	}
	if !e.quick {
		checkTension(r, cells, ref)
	}
	var base, tiled []*core.Result
	for i := 0; i+2 < len(ref); i += 3 {
		base, tiled = append(base, ref[i]), append(tiled, ref[i+2])
	}
	g, err := speedupGeomean(base, tiled)
	if err != nil {
		return nil, err
	}
	r.set("model.speedup_x", g)

	// One pass's stream, in cell order, is what mcmstat aggregates.
	pass0 := make([]string, len(cells))
	var streamBytes, rows float64
	for i := range cells {
		pass0[i] = streamPath(dir, 0, i)
		data, err := os.ReadFile(pass0[i])
		if err != nil {
			return nil, err
		}
		streamBytes += float64(len(data))
		rows += float64(bytes.Count(data, []byte{'\n'}))
	}
	r.set("metrics.mb", streamBytes/1e6)
	r.set("metrics.rows", rows)
	if err := statStage(e, r, pass0); err != nil {
		return nil, err
	}

	if e.tr == nil {
		return r, nil
	}
	// Sampler overhead: each cell's median sampled time over an unsampled
	// rerun taken now, after the heap has grown, so warm-up is not counted.
	_, plain, err := unsampledPass(e, cells)
	if err != nil {
		return nil, err
	}
	sampled := map[int][]float64{}
	for _, rec := range loop.recs {
		sampled[rec.idx] = append(sampled[rec.idx], float64(rec.dur))
	}
	var over []float64
	for i, d := range plain {
		over = append(over, 100*(quantile(sampled[i], 0.5)/float64(d)-1))
	}
	r.set("metrics.overhead_pct", quantile(over, 0.5))
	return r, finishTrace(e, r, prof, loop.wall, ref)
}

func streamPath(dir string, pass, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("p%d-c%d.ndjson", pass, idx))
}

// unsampledPass runs every cell once without the sampler, one at a time,
// each from the same heap as in closedLoop, so that the traced run's
// sampler overhead compares like with like.
func unsampledPass(e *env, cells []cell) ([]*core.Result, []time.Duration, error) {
	res := make([]*core.Result, len(cells))
	durs := make([]time.Duration, len(cells))
	for i, c := range cells {
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if res[i], err = e.simulate(0, c, core.RunOptions{}); err != nil {
			return nil, nil, err
		}
		durs[i] = time.Since(t0)
	}
	return res, durs, nil
}

// sampledRun simulates one cell with the metrics sampler streaming NDJSON
// to path.
func sampledRun(e *env, parent int, c cell, path string) (*core.Result, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	res, err := e.simulate(parent, c, core.RunOptions{Metrics: metrics.NewRecorder(w, observeInterval, false)})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// checkTension holds the dense-kernel tension the paper's optimizations
// create: distributed scheduling plus first touch is slower than the
// baseline on both kernels, and tiled scheduling with region-aware
// placement is faster.
func checkTension(r *report, cells []cell, ref []*core.Result) {
	for i := 0; i+2 < len(ref); i += 3 {
		base, opt, tiled := ref[i], ref[i+1], ref[i+2]
		r.check(opt.Cycles > base.Cycles, "%s: DS+FT (%d cycles) is not slower than baseline (%d)",
			cells[i].spec.Name, opt.Cycles, base.Cycles)
		r.check(tiled.Cycles < base.Cycles, "%s: tiled-region (%d cycles) is not faster than baseline (%d)",
			cells[i].spec.Name, tiled.Cycles, base.Cycles)
	}
}

// statBench is mcmstat's -bench-json report.
type statBench struct {
	Rows        int64 `json:"rows"`
	SpilledRuns int   `json:"spilled_runs"`
}

// mcmstat runs the aggregator over inputs and returns its output, its
// report and its wall time.
func mcmstat(e *env, tag string, inputs []string, extra ...string) ([]byte, statBench, time.Duration, error) {
	out := filepath.Join(e.work, "stat-"+tag+".csv")
	bj := filepath.Join(e.work, "stat-"+tag+".json")
	args := append([]string{"-group", statGroup, "-tmp", e.work, "-o", out, "-bench-json", bj}, extra...)
	cr, err := runChild(filepath.Join(e.bin, "mcmstat"), append(args, inputs...)...)
	if err != nil {
		return nil, statBench{}, 0, err
	}
	var sb statBench
	data, err := os.ReadFile(bj)
	if err == nil {
		err = json.Unmarshal(data, &sb)
	}
	if err != nil {
		return nil, sb, 0, fmt.Errorf("mcmstat %s report: %w", tag, err)
	}
	csv, err := os.ReadFile(out)
	return csv, sb, cr.wall, err
}

// statStage checks that mcmstat's output is the same under every execution
// strategy, then times it on the stream replicated to observeMinRows rows.
func statStage(e *env, r *report, pass []string) error {
	want, sb, _, err := mcmstat(e, "default", pass)
	if err != nil {
		return err
	}
	for _, v := range []struct {
		tag  string
		args []string
	}{{"j1", []string{"-j", "1"}}, {"spill", []string{"-mem", "64k"}}, {"naive", []string{"-naive"}}} {
		r.attempted++
		got, vb, _, err := mcmstat(e, v.tag, pass, v.args...)
		switch {
		case err != nil:
			r.opFailed("%v", err)
		case !bytes.Equal(got, want):
			r.opFailed("mcmstat %s output differs from the default run", v.tag)
		case v.tag == "spill" && vb.SpilledRuns == 0:
			r.opFailed("mcmstat -mem 64k did not spill, so the spill path went unchecked")
		}
	}

	copies := 1
	if !e.quick && sb.Rows > 0 {
		copies = int((observeMinRows + sb.Rows - 1) / sb.Rows)
	}
	var inputs []string
	for i := 0; i < copies; i++ {
		inputs = append(inputs, pass...)
	}
	var rates []float64
	var first []byte
	for i := 0; i < statRuns; i++ {
		r.attempted++
		id := e.tr.id()
		t0 := time.Now()
		got, b, wall, err := mcmstat(e, "big", inputs)
		e.tr.add(id, 0, 0, "mcmstat", t0, time.Now())
		if err != nil {
			r.opFailed("%v", err)
			continue
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			r.opFailed("mcmstat run %d output differs from run 0", i)
		}
		rates = append(rates, float64(b.Rows)/1e6/wall.Seconds())
	}
	if len(rates) == 0 {
		return nil
	}
	rate := quantile(rates, 0.5)
	r.set("mcmstat.mrows_per_s", rate)
	fmt.Printf("mcmstat: %d input files, %.2f Mrows/s (median of %d)\n", len(inputs), rate, len(rates))
	if e.tr != nil {
		_, b, wall, err := mcmstat(e, "big-j1", inputs, "-j", "1")
		if err != nil {
			return err
		}
		j1 := float64(b.Rows) / 1e6 / wall.Seconds()
		r.set("mcmstat.j1_mrows_per_s", j1)
		r.set("mcmstat.jn_speedup", rate/j1)
	}
	return nil
}
