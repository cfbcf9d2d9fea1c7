package energy

import (
	"math"
	"testing"
)

func TestTable2Values(t *testing.T) {
	// Table 2: chip 80 fJ/b, package 0.5 pJ/b, board 10 pJ/b, system 250 pJ/b.
	cases := []struct {
		d  Domain
		pj float64
	}{
		{DomainChip, 0.08},
		{DomainPackage, 0.5},
		{DomainBoard, 10},
		{DomainSystem, 250},
	}
	for _, c := range cases {
		if got := c.d.PJPerBit(); got != c.pj {
			t.Errorf("%v PJPerBit = %v, want %v", c.d, got, c.pj)
		}
	}
}

func TestPackageVsBoardRatio(t *testing.T) {
	// The MCM-GPU efficiency argument: on-package signaling is 20x cheaper
	// per bit than on-board signaling.
	ratio := DomainBoard.PJPerBit() / DomainPackage.PJPerBit()
	if ratio != 20 {
		t.Fatalf("board/package energy ratio = %v, want 20", ratio)
	}
}

func TestMeterAccumulation(t *testing.T) {
	m := NewMeter()
	m.AddBytes(DomainPackage, 1000)
	m.AddBytes(DomainPackage, 24)
	m.AddBytes(DomainChip, 512)
	m.AddDRAM(256)
	if got := m.Bytes(DomainPackage); got != 1024 {
		t.Fatalf("package bytes = %d, want 1024", got)
	}
	wantPkg := 1024.0 * 8 * 0.5
	if got := m.DomainPJ(DomainPackage); math.Abs(got-wantPkg) > 1e-9 {
		t.Fatalf("package energy = %v, want %v", got, wantPkg)
	}
	wantDRAM := 256.0 * 8 * DRAMPJPerBit
	if got := m.DRAMPJ(); math.Abs(got-wantDRAM) > 1e-9 {
		t.Fatalf("dram energy = %v, want %v", got, wantDRAM)
	}
	wantTotal := wantPkg + 512.0*8*0.08 + wantDRAM
	if got := m.TotalPJ(); math.Abs(got-wantTotal) > 1e-9 {
		t.Fatalf("total = %v, want %v", got, wantTotal)
	}
}

func TestDomainStrings(t *testing.T) {
	want := map[Domain]string{
		DomainChip: "chip", DomainPackage: "package",
		DomainBoard: "board", DomainSystem: "system",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d String = %q, want %q", int(d), d.String(), s)
		}
	}
}
