// Package energy implements the interconnect energy accounting of Table 2:
// approximate energy per bit for each integration domain (on-chip wires,
// on-package GRS links, on-board links, and system-level networks), plus
// DRAM access energy. The paper's efficiency argument for MCM-GPUs
// (Section 6.2) is that on-package signaling at 0.5 pJ/b replaces on-board
// signaling at 10 pJ/b; the meter makes that visible per run.
package energy

import "fmt"

// Domain identifies an integration tier from Table 2.
type Domain int

const (
	// DomainChip is on-die interconnect (GPM-Xbar traffic).
	DomainChip Domain = iota
	// DomainPackage is on-package GRS links between GPMs.
	DomainPackage
	// DomainBoard is on-board links between discrete GPUs.
	DomainBoard
	// DomainSystem is inter-node networking (not exercised by the
	// simulator but part of the published table).
	DomainSystem
	numDomains
)

// String returns the domain name.
func (d Domain) String() string {
	switch d {
	case DomainChip:
		return "chip"
	case DomainPackage:
		return "package"
	case DomainBoard:
		return "board"
	case DomainSystem:
		return "system"
	}
	return fmt.Sprintf("Domain(%d)", int(d))
}

// PJPerBit returns Table 2's approximate signaling energy for the domain.
func (d Domain) PJPerBit() float64 {
	switch d {
	case DomainChip:
		return 0.08 // 80 fJ/bit
	case DomainPackage:
		return 0.5
	case DomainBoard:
		return 10
	case DomainSystem:
		return 250
	}
	panic(fmt.Sprintf("energy: unknown domain %d", int(d)))
}

// DRAMPJPerBit approximates HBM2 access energy.
const DRAMPJPerBit = 4.0

// Meter accumulates data-movement energy for one simulation run.
type Meter struct {
	bytes [numDomains]uint64
	dram  uint64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// AddBytes records bytes moved over the given domain.
func (m *Meter) AddBytes(d Domain, n uint64) { m.bytes[d] += n }

// AddDRAM records bytes transferred at DRAM devices.
func (m *Meter) AddDRAM(n uint64) { m.dram += n }

// Bytes returns bytes moved over the given domain.
func (m *Meter) Bytes(d Domain) uint64 { return m.bytes[d] }

// DRAMBytes returns bytes recorded at DRAM devices. The invariant auditor
// reconciles this against the DRAM partitions' own byte counters; the energy
// numbers of Section 6.2 are only as honest as that agreement.
func (m *Meter) DRAMBytes() uint64 { return m.dram }

// DomainPJ returns the signaling energy spent in the given domain.
func (m *Meter) DomainPJ(d Domain) float64 {
	return float64(m.bytes[d]) * 8 * d.PJPerBit()
}

// DRAMPJ returns the DRAM access energy.
func (m *Meter) DRAMPJ() float64 { return float64(m.dram) * 8 * DRAMPJPerBit }

// TotalPJ returns total data-movement energy.
func (m *Meter) TotalPJ() float64 {
	total := m.DRAMPJ()
	for d := Domain(0); d < numDomains; d++ {
		total += m.DomainPJ(d)
	}
	return total
}
