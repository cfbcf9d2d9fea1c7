package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/runstore"
	"mcmgpu/internal/stats"
	"mcmgpu/internal/workload"
)

// cell is one simulation: a workload spec on a machine configuration.
type cell struct {
	cfg  *config.Config
	spec *workload.Spec
}

func (c cell) String() string { return c.spec.Name + " on " + c.cfg.Name }

// seededSpec returns spec scaled by scale with the run's seed mixed into
// its stream seed, so every seed simulates statistically identical but
// distinct access streams.
func seededSpec(spec *workload.Spec, scale float64, seed uint64) *workload.Spec {
	s := *spec
	if scale != 1 {
		s = *spec.Scaled(scale)
	}
	s.Seed ^= splitmix(seed)
	return &s
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// simulate runs one cell on a fresh machine, the way every CLI does, with
// spans around core.New and RunWith under parent.
func (e *env) simulate(parent int, c cell, opts core.RunOptions) (*core.Result, error) {
	cfg := c.cfg.Clone()
	t0 := time.Now()
	newID := e.tr.id()
	m, err := core.New(cfg)
	t1 := time.Now()
	e.tr.add(newID, parent, 0, "core.New", t0, t1)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}
	runID := e.tr.id()
	res, err := m.RunWith(c.spec, opts)
	t2 := time.Now()
	e.tr.add(runID, parent, 0, "core.RunWith", t1, t2)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}
	if !opts.Audit { // audited reruns are checks, slower by design
		e.sims.add(t2.Sub(t1), res)
	}
	return res, nil
}

// parallel calls fn(i) for every i < n on at most workers goroutines.
func parallel(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// resultBytes is the canonical encoding results are compared in: two runs
// agree exactly when these bytes do.
func resultBytes(r *core.Result) []byte {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // core.Result holds only numbers and strings
	}
	return data
}

func sameResult(a, b *core.Result) bool { return bytes.Equal(resultBytes(a), resultBytes(b)) }

// simLog pairs in-process RunWith durations with the work they simulated.
type simLog struct {
	mu     sync.Mutex
	runDur time.Duration
	memOps uint64
	instrs uint64
}

func (l *simLog) add(d time.Duration, r *core.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runDur += d
	l.memOps += r.MemOps
	l.instrs += r.WarpInstrs
}

// setSimLayers reports the simulator's per-layer metrics: span timings of
// the core calls, host cost per simulated memory op and instruction, and
// the simulated statistics of the distinct cells the run simulated.
func setSimLayers(r *report, spans []span, distinct []*core.Result) {
	if news := durationsMs(spans, "core.New"); len(news) > 0 {
		r.set("core.new_ms_p50", quantile(news, 0.5))
	}
	runs := durationsMs(spans, "core.RunWith")
	if len(runs) > 0 {
		r.set("core.run_ms_p50", quantile(runs, 0.5))
	}
	var c struct {
		memOps, l1h, l1a, l15h, l15a, l2h, l2a, inter, dram float64
	}
	for _, res := range distinct {
		c.memOps += float64(res.MemOps)
		c.l1h += res.L1HitRate * float64(res.L1Accesses)
		c.l1a += float64(res.L1Accesses)
		c.l15h += res.L15HitRate * float64(res.L15Accesses)
		c.l15a += float64(res.L15Accesses)
		c.l2h += res.L2HitRate * float64(res.L2Accesses)
		c.l2a += float64(res.L2Accesses)
		c.inter += float64(res.InterModuleBytes)
		c.dram += float64(res.DRAMBytes)
	}
	pct := func(h, a float64) float64 {
		if a == 0 {
			return 0
		}
		return 100 * h / a
	}
	r.set("sim.memops", c.memOps)
	r.set("cache.l1_hit_pct", pct(c.l1h, c.l1a))
	r.set("cache.l15_hit_pct", pct(c.l15h, c.l15a))
	r.set("cache.l2_hit_pct", pct(c.l2h, c.l2a))
	r.set("noc.inter_gpm_gb", c.inter/1e9)
	r.set("dram.gb", c.dram/1e9)
}

// setSimRates reports host time per simulated memory op and simulated
// instructions per host second over the logged RunWith calls.
func setSimRates(r *report, l *simLog) {
	if l.memOps > 0 {
		r.set("sim.ns_per_memop", float64(l.runDur)/float64(l.memOps))
	}
	if l.runDur > 0 {
		r.set("sim.minstr_per_s", float64(l.instrs)/1e6/l.runDur.Seconds())
	}
}

// speedupGeomean returns the geometric mean of base cycles over sys cycles
// across paired results.
func speedupGeomean(base, sys []*core.Result) (float64, error) {
	sp := make([]float64, len(base))
	for i := range base {
		sp[i] = sys[i].SpeedupOver(base[i])
	}
	return stats.GeoMean(sp)
}

// probeStore measures the run store on a scratch directory holding this
// run's results: median Put and Get, and the time to reopen the filled
// store (what a server pays at start-up).
func probeStore(r *report, dir string, results []*core.Result, seed uint64) error {
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	keys := make([]string, len(results))
	var puts, gets []float64
	for i, res := range results {
		keys[i] = fmt.Sprintf("bench-probe|%d|%d|%s|%s", seed, i, res.Config, res.Workload)
		t0 := time.Now()
		if err := st.Put(keys[i], res, nil); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(t0)))
	}
	for _, i := range rng.Perm(len(results)) {
		t0 := time.Now()
		got, _, ok, err := st.Get(keys[i])
		gets = append(gets, ms(time.Since(t0)))
		if err != nil || !ok || !sameResult(got, results[i]) {
			r.fail("run store probe: entry %d did not read back (ok=%v, err=%v)", i, ok, err)
		}
	}
	t0 := time.Now()
	re, err := runstore.Open(dir)
	open := time.Since(t0)
	if err != nil {
		return err
	}
	r.check(re.Len() == len(results), "run store probe: reopened store holds %d entries, want %d", re.Len(), len(results))
	r.set("runstore.open_ms", ms(open))
	r.set("runstore.put_ms_p50", quantile(puts, 0.5))
	r.set("runstore.get_ms_p50", quantile(gets, 0.5))
	return os.RemoveAll(dir)
}

// finishTrace derives the layer metrics every workload shares from the
// run's spans and CPU profile, and saves the spans.
func finishTrace(e *env, r *report, prof *cpuProfile, wall time.Duration, distinct []*core.Result) error {
	spans := e.tr.snapshot()
	setSimLayers(r, spans, distinct)
	setSimRates(r, &e.sims)
	r.set("trace.overhead_pct", spanOverheadPct(len(spans), wall, e.workers))
	if err := probeStore(r, filepath.Join(e.work, "probe-store"), distinct, e.seed); err != nil {
		return fmt.Errorf("run store probe: %w", err)
	}
	shares, total, err := layerShares(prof.path)
	if err != nil {
		return err
	}
	r.set("cpu.busy_pct", 100*total.Seconds()/(wall.Seconds()*float64(e.workers)))
	for _, l := range cpuLayers {
		r.set("cpu."+l+"_pct", shares[l])
	}
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("span self time:")
	for _, n := range names {
		fmt.Printf(" %s %.1f ms;", n, self[n])
	}
	fmt.Println()
	path := filepath.Join(e.traceDir, "spans.json")
	if err := e.tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans in %s, CPU profile in %s\n", len(spans), path, prof.path)
	return nil
}
