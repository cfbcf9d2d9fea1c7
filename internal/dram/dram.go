// Package dram models the memory partitions attached to each GPU module:
// a fixed access latency (Table 3: 100 ns) in front of a bandwidth-limited
// device. Channel-level interleaving inside a partition is abstracted into
// the partition's aggregate bandwidth, as the paper does when it sizes
// on-package links against per-partition DRAM bandwidth.
package dram

import (
	"fmt"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/engine"
)

// Partition is one DRAM partition (768 GB/s in the baseline MCM-GPU).
type Partition struct {
	id      int
	res     *engine.Resource
	latency engine.Cycle

	bytes  uint64
	reads  uint64
	writes uint64
}

// NewPartition creates partition id with the given bandwidth (GB/s, which
// equals bytes/cycle at 1 GHz) and access latency in cycles.
func NewPartition(id int, gbps float64, latency uint64) *Partition {
	return &Partition{
		id:      id,
		res:     engine.NewResource(fmt.Sprintf("dram-%d", id), gbps),
		latency: engine.Cycle(latency),
	}
}

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
	audit.Equal(r, "dram-bytes", fmt.Sprintf("dram-%d", p.id),
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
