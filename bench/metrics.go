package main

import (
	"fmt"
	"math"
)

// metricDef is one metric the benchmark can emit. The two tables below are
// the single source of truth for names, units and directions;
// manifest_test.go holds BENCHMARK.json to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric and the
	// workload on which a change to that layer should show.
	Moves string
}

// endToEnd are the metrics a user of the simulator waits on. Every workload
// reports all of them; "op" is the workload's unit of work (a simulated
// cell, a sweep invocation, a service request — see README.md), and
// op_ms_tail is the op latency at tailQuantile of the ops timed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// cpuLayers are the groups the traced run's CPU profile is attributed to:
// the simulator's own packages by name, plus the Go runtime (GC,
// allocation, scheduling), networking, JSON and everything else.
var cpuLayers = []string{
	"engine", "cache", "core", "workload", "noc", "vm", "dram", "sm", "cta",
	"energy", "metrics", "runner", "runstore", "runtime", "net", "json", "other",
}

// perLayer are the traced run's metrics. A workload that does not exercise
// a layer reports 0 for it.
var perLayer = append([]metricDef{
	{Name: "core.new_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on suite (short cells); not observe"},
	{Name: "core.run_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 and ops_per_s on suite and observe; not service"},
	{Name: "sim.ns_per_memop", Unit: "ns", Better: "lower", Moves: "ops_per_s on suite and observe, op_ms_p50 on sweep"},
	{Name: "sim.minstr_per_s", Unit: "Minstr/s", Better: "higher", Moves: "ops_per_s on suite and observe"},
	{Name: "cpu.busy_pct", Unit: "%", Better: "lower", Moves: "validity: profiled CPU over the timed wall time of every CPU; low means the cpu.*_pct shares describe little work"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "validity: span cost against the traced wall time"},
	{Name: "sim.memops", Unit: "count", Better: "lower", Moves: "identical across host-speed changes; model changes only"},
	{Name: "cache.l1_hit_pct", Unit: "%", Better: "higher", Moves: "identical across host-speed changes; model changes only"},
	{Name: "cache.l15_hit_pct", Unit: "%", Better: "higher", Moves: "identical across host-speed changes; model changes only"},
	{Name: "cache.l2_hit_pct", Unit: "%", Better: "higher", Moves: "identical across host-speed changes; model changes only"},
	{Name: "noc.inter_gpm_gb", Unit: "GB", Better: "lower", Moves: "identical across host-speed changes; model changes only"},
	{Name: "dram.gb", Unit: "GB", Better: "lower", Moves: "identical across host-speed changes; model changes only"},
	{Name: "model.speedup_x", Unit: "x", Better: "higher", Moves: "suite: optimized over baseline; observe: tiled-region over baseline"},
	{Name: "model.paper_err_pp", Unit: "pp", Better: "lower", Moves: "suite: distance of model.speedup_x from the paper's 1.228"},
	{Name: "runstore.open_ms", Unit: "ms", Better: "lower", Moves: "setup_s on service"},
	{Name: "runstore.put_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_tail on service (cold writes)"},
	{Name: "runstore.get_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on service (warm reads)"},
	{Name: "metrics.overhead_pct", Unit: "%", Better: "lower", Moves: "ops_per_s on observe; not suite (unsampled)"},
	{Name: "metrics.mb", Unit: "MB", Better: "lower", Moves: "ops_per_s on observe"},
	{Name: "metrics.rows", Unit: "count", Better: "lower", Moves: "identical across host-speed changes"},
	{Name: "mcmstat.mrows_per_s", Unit: "Mrows/s", Better: "higher", Moves: "observe only; the stat aggregation journey"},
	{Name: "mcmstat.j1_mrows_per_s", Unit: "Mrows/s", Better: "higher", Moves: "mcmstat.mrows_per_s on observe"},
	{Name: "mcmstat.jn_speedup", Unit: "x", Better: "higher", Moves: "mcmstat.mrows_per_s on observe"},
	{Name: "sweep.phase1_pct", Unit: "%", Better: "lower", Moves: "op_ms_p50 on sweep"},
	{Name: "sweep.phase2_pct", Unit: "%", Better: "lower", Moves: "op_ms_p50 on sweep"},
	{Name: "sweep.sim_jobs_per_s", Unit: "1/s", Better: "higher", Moves: "op_ms_p50 and ops_per_s on sweep; not suite (runner bypassed)"},
	{Name: "sweep.cpu_util_pct", Unit: "%", Better: "higher", Moves: "op_ms_p50 on sweep (runner load balance)"},
	{Name: "client.submit_pct", Unit: "%", Better: "lower", Moves: "op_ms_p50 on service"},
	{Name: "client.poll_pct", Unit: "%", Better: "lower", Moves: "op_ms_tail on service"},
	{Name: "client.result_pct", Unit: "%", Better: "lower", Moves: "op_ms_p50 on service"},
	{Name: "service.gen_wait_pct", Unit: "%", Better: "lower", Moves: "validity: share of request time the generator ran late"},
	{Name: "mcmserve.queue_depth_max", Unit: "count", Better: "lower", Moves: "op_ms_tail and ops_per_s on service"},
	{Name: "mcmserve.refused", Unit: "count", Better: "lower", Moves: "ops_per_s on service"},
	{Name: "mcmserve.store_hit_pct", Unit: "%", Better: "higher", Moves: "op_ms_p50 on service"},
	{Name: "mcmserve.cpu_util_pct", Unit: "%", Better: "lower", Moves: "cpu_ms_per_op and op_ms_tail on service"},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, len(cpuLayers))
	for i, l := range cpuLayers {
		defs[i] = metricDef{Name: "cpu." + l + "_pct", Unit: "%", Better: "lower",
			Moves: "share of the bench process's profiled CPU; its workload's ops_per_s"}
	}
	return defs
}

// allMetrics returns both tables, end-to-end first.
func allMetrics() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

func known(name string) bool {
	for _, d := range allMetrics() {
		if d.Name == name {
			return true
		}
	}
	return false
}

// report collects one run's metrics and correctness verdict.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// set records a metric. Names outside the two tables are a bug in the
// benchmark, not a property of the measured program.
func (r *report) set(name string, v float64) {
	if !known(name) {
		panic(fmt.Sprintf("bench: metric %q is not in the metric tables", name))
	}
	r.values[name] = v
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records a failed check when ok is false.
func (r *report) check(ok bool, format string, args ...interface{}) {
	if !ok {
		r.fail(format, args...)
	}
}

// opFailed counts one failed or wrong-output operation.
func (r *report) opFailed(format string, args ...interface{}) {
	r.failed++
	r.fail(format, args...)
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result renders the report's end-to-end metrics, or its per-layer ones
// when traced, as the output object. Every metric of the chosen table must
// be present and finite: an end-to-end metric the workload did not measure
// is a benchmark bug, and a per-layer one the workload does not exercise
// reads 0.
func (r *report) result(traced bool) (resultOut, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultOut{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !traced {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	out.Correct = r.correct() && r.attempted > 0
	return out, nil
}
