// Package dram models the memory partitions attached to each GPU module:
// a fixed access latency (Table 3: 100 ns) in front of a bandwidth-limited
// device. Channel-level interleaving inside a partition is abstracted into
// the partition's aggregate bandwidth, as the paper does when it sizes
// on-package links against per-partition DRAM bandwidth.
package dram

import (
	"mcmgpu/internal/audit"
	"mcmgpu/internal/engine"
)

// Partition is one DRAM partition (768 GB/s in the baseline MCM-GPU).
type Partition struct {
	res     engine.Resource
	latency engine.Cycle

	bytes  uint64
	reads  uint64
	writes uint64
}

// Init readies p in place as idle partition id with the given bandwidth
// (GB/s, which equals bytes/cycle at 1 GHz) and access latency in cycles,
// clearing every counter. It allocates nothing: the device resource is part
// of p, and its name is formatted only when read.
func (p *Partition) Init(id int, gbps float64, latency uint64) {
	*p = Partition{latency: engine.Cycle(latency)}
	p.res.Init("dram-%d", id, gbps)
}

// Name returns the partition's name, such as "dram-5"; it is its device
// resource's name.
func (p *Partition) Name() string { return p.res.Name() }

// Read books a read of the given size and returns the time data is
// available: queuing + serialization on the device plus the access latency.
func (p *Partition) Read(now engine.Cycle, bytes uint64) engine.Cycle {
	p.reads++
	p.bytes += bytes
	return p.res.Reserve(now, bytes) + p.latency
}

// Write books a write of the given size. Writes consume bandwidth but the
// caller does not usually wait on the returned completion time (GPU stores
// retire at issue).
func (p *Partition) Write(now engine.Cycle, bytes uint64) engine.Cycle {
	p.writes++
	p.bytes += bytes
	return p.res.Reserve(now, bytes) + p.latency
}

// Bytes returns total bytes transferred (reads + writes).
func (p *Partition) Bytes() uint64 { return p.bytes }

// Reads returns the number of read requests served. The per-direction
// accessors exist for the invariant auditor, which ties reads to L2 misses
// and writes to L2 writebacks separately.
func (p *Partition) Reads() uint64 { return p.reads }

// Writes returns the number of write requests served.
func (p *Partition) Writes() uint64 { return p.writes }

// Audit checks byte conservation into r: every byte counted by Read and
// Write was reserved on the device resource and vice versa, so the device's
// reserved units must equal the byte counter exactly.
func (p *Partition) Audit(r *audit.Reporter) {
	audit.Equal(r, "dram-bytes", p.Name(),
		"device reserved bytes", p.res.Units(), p.bytes)
}

// Utilization returns the fraction of elapsed cycles the device was busy.
func (p *Partition) Utilization(elapsed engine.Cycle) float64 {
	return p.res.Utilization(elapsed)
}

// BusyThrough returns the device's busy cycles clipped to now (see
// engine.Resource.BusyThrough). With Units it makes the partition a metrics
// probe.
func (p *Partition) BusyThrough(now engine.Cycle) float64 {
	return p.res.BusyThrough(now)
}

// Units returns the bytes reserved on the device resource.
func (p *Partition) Units() uint64 { return p.res.Units() }
