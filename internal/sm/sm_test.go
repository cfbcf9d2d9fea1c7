package sm

import (
	"testing"

	"mcmgpu/internal/config"
)

func newSM(t *testing.T) *SM {
	t.Helper()
	cfg := config.BaselineMCM()
	return New(3, 1, cfg, make([]uint32, cfg.L1.Lines()), make([]uint32, cfg.L1.Lines()/cfg.L1.Ways))
}

func TestOccupancyLimits(t *testing.T) {
	s := newSM(t)
	// 64 warp slots, CTAs of 8 warps: exactly 8 fit.
	n := 0
	for s.CanHost(8) {
		s.HostCTA(8)
		n++
	}
	if n != 8 {
		t.Fatalf("hosted %d CTAs of 8 warps, want 8", n)
	}
	if s.ResidentWarps() != 64 {
		t.Fatalf("ResidentWarps = %d, want 64", s.ResidentWarps())
	}
	s.RetireCTA(8)
	if !s.CanHost(8) {
		t.Fatalf("cannot host after retirement")
	}
	if s.peakResidency != 64 {
		t.Fatalf("peak residency = %d, want 64", s.peakResidency)
	}
}

func TestMaxCTAsCap(t *testing.T) {
	cfg := config.BaselineMCM()
	cfg.MaxCTAsPerSM = 2
	s := New(0, 0, cfg, make([]uint32, cfg.L1.Lines()), make([]uint32, cfg.L1.Lines()/cfg.L1.Ways))
	s.HostCTA(1)
	s.HostCTA(1)
	if s.CanHost(1) {
		t.Fatalf("CTA cap not enforced")
	}
}

func TestHostWithoutRoomPanics(t *testing.T) {
	s := newSM(t)
	defer func() {
		if recover() == nil {
			t.Fatalf("overcommit did not panic")
		}
	}()
	s.HostCTA(65)
}

func TestRetireUnderflowPanics(t *testing.T) {
	s := newSM(t)
	defer func() {
		if recover() == nil {
			t.Fatalf("retire underflow did not panic")
		}
	}()
	s.RetireCTA(4)
}

func TestIssueThroughput(t *testing.T) {
	s := newSM(t)
	// Issue rate is 1 instruction/cycle: 10 instructions take 10 cycles.
	if end := s.Issue.Reserve(0, 10); end != 10 {
		t.Fatalf("issue of 10 instrs ends at %d, want 10", end)
	}
	// A second warp's block queues behind the first.
	if end := s.Issue.Reserve(0, 5); end != 15 {
		t.Fatalf("queued issue ends at %d, want 15", end)
	}
}

func TestFlushL1(t *testing.T) {
	s := newSM(t)
	s.L1.Access(42, false)
	if !s.L1.Probe(42, false) {
		t.Fatalf("line not cached")
	}
	s.FlushL1()
	if s.L1.Probe(42, false) {
		t.Fatalf("line survived kernel-boundary flush")
	}
}

func TestCounters(t *testing.T) {
	s := newSM(t)
	s.HostCTA(4)
	s.RetireCTA(4)
	if s.RetiredCTAs() != 1 {
		t.Fatalf("RetiredCTAs = %d", s.RetiredCTAs())
	}
	if s.ID() != 3 || s.Module() != 1 {
		t.Fatalf("identity wrong: id=%d module=%d", s.ID(), s.Module())
	}
}
