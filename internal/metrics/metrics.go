// Package metrics is the simulator's time-series observability layer: a
// periodic sampler that rides a periodic engine hook (engine.Sim.AddHook,
// installed after the budget check and the auditor) and exports
// per-interval *deltas* of the machine's bandwidth and cache counters as
// NDJSON or CSV.
//
// The sampler is strictly observational. Every quantity it reads is either a
// cumulative counter or engine.Resource.BusyThrough — which advances a
// settlement watermark but never changes reservation timing or end-of-run
// totals — so a sampled run is byte-identical to an unsampled one. That
// contract is pinned by tests in core and runner and by CI's metrics smoke
// step.
//
// Interval utilization is computed from busy-cycle deltas clipped to the
// observation interval (see engine.Resource.BusyThrough), so a saturated
// link reads 1.0 during the phase that saturates it instead of the >1
// figures the raw Reserve-time accounting would give. The emitted busy
// deltas themselves are exact: over any run they sum to the resource's
// end-of-run busy total.
package metrics

import (
	"io"
	"strconv"

	"mcmgpu/internal/engine"
)

// DefaultInterval is the sampling interval, in cycles, when the caller does
// not choose one. At the model's 1 GHz clock this is ~4 µs of simulated
// time — fine enough to resolve kernel phases, coarse enough that a full
// experiment sweep emits megabytes, not gigabytes.
const DefaultInterval engine.Cycle = 4096

// Probe is a bandwidth-limited component the sampler reads: anything that
// can report time-clipped busy cycles and cumulative transferred units.
// engine.Resource satisfies it directly; dram.Partition delegates.
type Probe interface {
	BusyThrough(now engine.Cycle) float64
	Units() uint64
}

// CacheCounters is the slice of a cache the sampler reads. cache.Cache
// satisfies it.
type CacheCounters interface {
	Hits() uint64
	Accesses() uint64
}

// State is the instantaneous machine state attached to each sample.
type State struct {
	LiveCTAs       int
	InFlightLoads  int
	InFlightStores int
}

// probeState is one registered resource with its delta baselines: last* is
// the previous sample's settled value, k* the current kernel's start value.
type probeState struct {
	kind string
	gpm  int
	name string
	p    Probe

	lastBusy  float64
	lastUnits uint64
	kBusy     float64
	kUnits    uint64
}

// cacheState is one registered cache level within one GPM (possibly several
// physical slices, e.g. all L1s of a module) with its delta baselines.
type cacheState struct {
	level string
	gpm   int
	cs    []CacheCounters

	lastHits, lastAcc uint64
	kHits, kAcc       uint64
}

func (c *cacheState) totals() (hits, acc uint64) {
	for _, cc := range c.cs {
		hits += cc.Hits()
		acc += cc.Accesses()
	}
	return hits, acc
}

// Recorder samples one run at a time and streams records to a writer. It is
// reusable: Begin resets the per-run state, so one Recorder can serve a
// sequence of runs while writing a single concatenated stream. It is not
// safe for concurrent use; the parallel runner gives each job its own
// Recorder over its own buffer.
type Recorder struct {
	w        io.Writer
	interval engine.Cycle
	csv      bool

	wroteHeader bool
	err         error

	config, workload string
	seq              int
	kernel           int
	lastCycle        engine.Cycle
	lastEvents       uint64
	kCycle           engine.Cycle
	kEvents          uint64
	resources        []*probeState
	caches           []*cacheState
	state            func() State

	// Reused encoding scratch: the emit hot path appends records into buf
	// and record fields into encRes/encCaches, so steady-state sampling
	// performs no per-sample allocations (pinned by TestEmitAllocs).
	buf           []byte
	prefixScratch []byte
	encRes        []resourceRecord
	encCache      []cacheRecord
}

// NewRecorder creates a Recorder writing to w (nil = discard) every interval
// cycles (<= 0 = DefaultInterval), as CSV when csv is set and NDJSON
// otherwise.
func NewRecorder(w io.Writer, interval engine.Cycle, csv bool) *Recorder {
	if w == nil {
		w = io.Discard
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Recorder{w: w, interval: interval, csv: csv}
}

// OmitCSVHeader suppresses the CSV header row. The parallel runner sets it
// on every per-job Recorder and writes one header itself, so concatenating
// job streams yields a single well-formed CSV.
func (r *Recorder) OmitCSVHeader() { r.wroteHeader = true }

// Err returns the first write or encoding error, if any. core surfaces it as
// a run failure after the simulation completes.
func (r *Recorder) Err() error { return r.err }

// Begin resets the per-run state for a new (config, workload) run. The
// machine registers its probes after Begin and before the first Tick.
func (r *Recorder) Begin(config, workload string) {
	r.config, r.workload = config, workload
	r.seq, r.kernel = 0, 0
	r.lastCycle, r.lastEvents = 0, 0
	r.kCycle, r.kEvents = 0, 0
	r.resources = r.resources[:0]
	r.caches = r.caches[:0]
	r.state = nil
}

// AddResource registers one bandwidth-limited component under a kind tag
// ("link", "xbar", "l2bank", "dram") attributed to a GPM.
func (r *Recorder) AddResource(kind string, gpm int, name string, p Probe) {
	r.resources = append(r.resources, &probeState{kind: kind, gpm: gpm, name: name, p: p})
}

// AddCaches registers the physical slices of one cache level within one GPM;
// their counters are aggregated into a single per-sample entry.
func (r *Recorder) AddCaches(level string, gpm int, cs []CacheCounters) {
	if len(cs) == 0 {
		return
	}
	r.caches = append(r.caches, &cacheState{level: level, gpm: gpm, cs: cs})
}

// SetStateProbe registers the instantaneous-state callback.
func (r *Recorder) SetStateProbe(fn func() State) { r.state = fn }

// Tick is the engine sample hook's body: it emits a sample once at least one
// interval of simulated time has passed since the previous one. Samples land
// on event timestamps, so their spans are >= the interval, not exact
// multiples of it.
func (r *Recorder) Tick(now engine.Cycle, events uint64) {
	if now-r.lastCycle >= r.interval {
		r.emitSample(now, events)
	}
}

// KernelBoundary closes the current kernel: it flushes a partial sample (so
// no sample straddles a boundary) and emits one kernel record whose busy
// deltas and utilizations are computed over the kernel's own elapsed cycles.
// Resources are intentionally not Reset at kernel boundaries — all counters
// are cumulative across kernels — so per-kernel figures come from these
// deltas, never from dividing a cumulative counter by a kernel-local
// denominator.
func (r *Recorder) KernelBoundary(now engine.Cycle, events uint64) {
	r.emitSample(now, events)
	r.emitKernel(now, events)
	r.kernel++
	r.kCycle, r.kEvents = now, events
	for _, p := range r.resources {
		p.kBusy, p.kUnits = p.lastBusy, p.lastUnits
	}
	for _, c := range r.caches {
		c.kHits, c.kAcc = c.lastHits, c.lastAcc
	}
}

// Finish flushes the trailing partial sample of a run.
func (r *Recorder) Finish(now engine.Cycle, events uint64) {
	r.emitSample(now, events)
}

// resourceRecord is the per-resource slice of a sample or kernel record.
// Busy is the exact busy-cycle delta over the record's span; Util is
// Busy/span clamped to [0, 1] (sub-cycle rounding can overshoot 1 by less
// than half a cycle over the span; the clamp keeps the published series in
// range while Busy stays exact).
type resourceRecord struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	GPM   int     `json:"gpm"`
	Busy  float64 `json:"busy"`
	Units uint64  `json:"units"`
	Util  float64 `json:"util"`
}

// cacheRecord is the per-cache-level slice of a sample or kernel record.
type cacheRecord struct {
	Level  string `json:"level"`
	GPM    int    `json:"gpm"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// sampleRecord is one NDJSON "sample" line: the deltas over [Start, End].
type sampleRecord struct {
	Type      string           `json:"type"`
	Config    string           `json:"config"`
	Workload  string           `json:"workload"`
	Seq       int              `json:"seq"`
	Kernel    int              `json:"kernel"`
	Start     uint64           `json:"start"`
	End       uint64           `json:"end"`
	Events    uint64           `json:"events"`
	LiveCTAs  int              `json:"liveCTAs"`
	Loads     int              `json:"loads"`
	Stores    int              `json:"stores"`
	Resources []resourceRecord `json:"resources"`
	Caches    []cacheRecord    `json:"caches"`
}

// kernelRecord is one NDJSON "kernel" line: one kernel's phase boundary,
// with deltas over the whole kernel span [Start, End].
type kernelRecord struct {
	Type      string           `json:"type"`
	Config    string           `json:"config"`
	Workload  string           `json:"workload"`
	Kernel    int              `json:"kernel"`
	Start     uint64           `json:"start"`
	End       uint64           `json:"end"`
	Events    uint64           `json:"events"`
	Resources []resourceRecord `json:"resources"`
	Caches    []cacheRecord    `json:"caches"`
}

// clampedUtil returns busy/elapsed clamped to [0, 1].
func clampedUtil(busy, elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := busy / elapsed
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

func (r *Recorder) emitSample(now engine.Cycle, events uint64) {
	if r.err != nil || now <= r.lastCycle {
		return
	}
	elapsed := float64(now - r.lastCycle)
	r.encRes = r.encRes[:0]
	for _, p := range r.resources {
		busy := p.p.BusyThrough(now)
		units := p.p.Units()
		rec := resourceRecord{
			Name:  p.name,
			Kind:  p.kind,
			GPM:   p.gpm,
			Busy:  busy - p.lastBusy,
			Units: units - p.lastUnits,
			Util:  clampedUtil(busy-p.lastBusy, elapsed),
		}
		p.lastBusy, p.lastUnits = busy, units
		r.encRes = append(r.encRes, rec)
	}
	r.encCache = r.encCache[:0]
	for _, c := range r.caches {
		hits, acc := c.totals()
		r.encCache = append(r.encCache, cacheRecord{
			Level:  c.level,
			GPM:    c.gpm,
			Hits:   hits - c.lastHits,
			Misses: (acc - c.lastAcc) - (hits - c.lastHits),
		})
		c.lastHits, c.lastAcc = hits, acc
	}
	var st State
	if r.state != nil {
		st = r.state()
	}
	rec := sampleRecord{
		Type:      "sample",
		Config:    r.config,
		Workload:  r.workload,
		Seq:       r.seq,
		Kernel:    r.kernel,
		Start:     uint64(r.lastCycle),
		End:       uint64(now),
		Events:    events - r.lastEvents,
		LiveCTAs:  st.LiveCTAs,
		Loads:     st.InFlightLoads,
		Stores:    st.InFlightStores,
		Resources: r.encRes,
		Caches:    r.encCache,
	}
	if r.csv {
		r.writeCSVSample(&rec)
	} else {
		r.writeJSONRecord(func(dst []byte) ([]byte, error) { return appendJSONSample(dst, &rec) })
	}
	r.lastCycle, r.lastEvents = now, events
	r.seq++
}

func (r *Recorder) emitKernel(now engine.Cycle, events uint64) {
	if r.err != nil {
		return
	}
	elapsed := float64(now - r.kCycle)
	r.encRes = r.encRes[:0]
	for _, p := range r.resources {
		// emitSample just settled every probe through now (or nothing has
		// elapsed since it last did), so lastBusy is BusyThrough(now).
		r.encRes = append(r.encRes, resourceRecord{
			Name:  p.name,
			Kind:  p.kind,
			GPM:   p.gpm,
			Busy:  p.lastBusy - p.kBusy,
			Units: p.lastUnits - p.kUnits,
			Util:  clampedUtil(p.lastBusy-p.kBusy, elapsed),
		})
	}
	r.encCache = r.encCache[:0]
	for _, c := range r.caches {
		r.encCache = append(r.encCache, cacheRecord{
			Level:  c.level,
			GPM:    c.gpm,
			Hits:   c.lastHits - c.kHits,
			Misses: (c.lastAcc - c.kAcc) - (c.lastHits - c.kHits),
		})
	}
	rec := kernelRecord{
		Type:      "kernel",
		Config:    r.config,
		Workload:  r.workload,
		Kernel:    r.kernel,
		Start:     uint64(r.kCycle),
		End:       uint64(now),
		Events:    events - r.kEvents,
		Resources: r.encRes,
		Caches:    r.encCache,
	}
	if r.csv {
		r.writeCSVKernel(&rec)
	} else {
		r.writeJSONRecord(func(dst []byte) ([]byte, error) { return appendJSONKernel(dst, &rec) })
	}
}

// writeJSONRecord encodes one record into the reused buffer via enc and
// writes it as a single line.
func (r *Recorder) writeJSONRecord(enc func([]byte) ([]byte, error)) {
	buf, err := enc(r.buf[:0])
	r.buf = buf
	if err != nil {
		r.err = err
		return
	}
	if _, err := r.w.Write(buf); err != nil {
		r.err = err
	}
}

// CSVHeader is the header row of the CSV export's long format: one row per
// (record, resource-or-cache). Resource rows fill busy/units/util; cache
// rows fill hits/misses; kernel rows leave seq and the state columns empty.
const CSVHeader = "type,config,workload,seq,kernel,start,end,events,liveCTAs,loads,stores,kind,gpm,name,busy,units,util,hits,misses"

// header appends the single CSV header row if it has not been written yet.
func (r *Recorder) header(dst []byte) []byte {
	if !r.wroteHeader {
		dst = append(dst, CSVHeader...)
		dst = append(dst, '\n')
		r.wroteHeader = true
	}
	return dst
}

func (r *Recorder) writeCSVSample(rec *sampleRecord) {
	buf := r.header(r.buf[:0])
	// The record prefix columns, shared by every row of this sample.
	p := r.prefixScratch[:0]
	p = append(p, `sample,`...)
	p = appendCSVField(p, rec.Config)
	p = append(p, ',')
	p = appendCSVField(p, rec.Workload)
	p = append(p, ',')
	p = strconv.AppendInt(p, int64(rec.Seq), 10)
	p = append(p, ',')
	p = strconv.AppendInt(p, int64(rec.Kernel), 10)
	p = append(p, ',')
	p = strconv.AppendUint(p, rec.Start, 10)
	p = append(p, ',')
	p = strconv.AppendUint(p, rec.End, 10)
	p = append(p, ',')
	p = strconv.AppendUint(p, rec.Events, 10)
	p = append(p, ',')
	p = strconv.AppendInt(p, int64(rec.LiveCTAs), 10)
	p = append(p, ',')
	p = strconv.AppendInt(p, int64(rec.Loads), 10)
	p = append(p, ',')
	p = strconv.AppendInt(p, int64(rec.Stores), 10)
	r.prefixScratch = p
	buf = appendCSVBody(buf, p, rec.Resources, rec.Caches)
	r.buf = buf
	if _, err := r.w.Write(buf); err != nil {
		r.err = err
	}
}

func (r *Recorder) writeCSVKernel(rec *kernelRecord) {
	buf := r.header(r.buf[:0])
	p := r.prefixScratch[:0]
	p = append(p, `kernel,`...)
	p = appendCSVField(p, rec.Config)
	p = append(p, ',')
	p = appendCSVField(p, rec.Workload)
	p = append(p, ',', ',') // empty seq column
	p = strconv.AppendInt(p, int64(rec.Kernel), 10)
	p = append(p, ',')
	p = strconv.AppendUint(p, rec.Start, 10)
	p = append(p, ',')
	p = strconv.AppendUint(p, rec.End, 10)
	p = append(p, ',')
	p = strconv.AppendUint(p, rec.Events, 10)
	p = append(p, ',', ',', ',') // empty liveCTAs/loads/stores columns
	r.prefixScratch = p
	buf = appendCSVBody(buf, p, rec.Resources, rec.Caches)
	r.buf = buf
	if _, err := r.w.Write(buf); err != nil {
		r.err = err
	}
}
