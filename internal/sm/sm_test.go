package sm

import (
	"testing"

	"mcmgpu/internal/cache"
	"mcmgpu/internal/config"
)

func newSM(t *testing.T) *SM {
	t.Helper()
	return initSM(config.BaselineMCM())
}

// initSM initializes SM 3 of module 1 for cfg over fresh L1 arrays.
func initSM(cfg *config.Config) *SM {
	s := new(SM)
	s.Init(3, 1, cfg, cache.Lines{Narrow: make([]uint16, cfg.L1.Lines())}, make([]uint32, cfg.L1.Lines()/cfg.L1.Ways))
	return s
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
	s := initSM(cfg)
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

// TestInitResetsInPlace re-initializes a used SM as another: every counter,
// its issue resource and its L1 start over, the names follow the new
// index, the store-waiter FIFO keeps its array, and Init allocates nothing.
func TestInitResetsInPlace(t *testing.T) {
	cfg := config.BaselineMCM()
	l1, sets := cache.Lines{Narrow: make([]uint16, cfg.L1.Lines())}, make([]uint32, cfg.L1.Lines()/cfg.L1.Ways)
	s := new(SM)
	s.Init(3, 1, cfg, l1, sets)
	s.HostCTA(4)
	s.Issue.Reserve(0, 10)
	s.L1.Access(42, false)
	for s.StoresInFlight() < StoreBufferSlots {
		s.AcquireStore()
	}
	s.AwaitStore(7)
	waiters := cap(s.storeWaiters)
	s.FlushL1() // Init takes an all-zero way array
	if a := testing.AllocsPerRun(10, func() { s.Init(17, 2, cfg, l1, sets) }); a != 0 {
		t.Errorf("Init allocated %v objects, want 0", a)
	}
	if s.ID() != 17 || s.Module() != 2 || s.ResidentCTAs() != 0 || s.LaunchedCTAs() != 0 ||
		s.StoresInFlight() != 0 || s.PendingStoreWaiters() != 0 || s.peakResidency != 0 {
		t.Fatalf("re-initialized SM kept state: id %d module %d, %d CTAs resident, %d launched, %d stores, %d waiters",
			s.ID(), s.Module(), s.ResidentCTAs(), s.LaunchedCTAs(), s.StoresInFlight(), s.PendingStoreWaiters())
	}
	if s.Issue.Units() != 0 || s.L1.Accesses() != 0 {
		t.Fatalf("re-initialized SM kept %d issue units and %d L1 accesses", s.Issue.Units(), s.L1.Accesses())
	}
	if end := s.Issue.Reserve(0, 10); end != 10 {
		t.Fatalf("issue on the re-initialized SM ends at %d, want 10", end)
	}
	if cap(s.storeWaiters) != waiters {
		t.Fatalf("store-waiter FIFO capacity %d, was %d", cap(s.storeWaiters), waiters)
	}
	if s.Issue.Name() != "sm17-issue" || s.L1.Name() != "sm17-l1" {
		t.Fatalf("names %q and %q, want sm17-issue and sm17-l1", s.Issue.Name(), s.L1.Name())
	}
}
