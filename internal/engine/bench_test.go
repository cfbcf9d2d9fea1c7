package engine

// Microbenchmarks for the event-engine hot path, plus AllocsPerRun
// regression tests pinning the typed-event path at zero steady-state
// allocations. The end-to-end kernel benchmark lives at the repo root
// (BenchmarkSimulatorThroughput); these isolate the engine's own costs.

import "testing"

// nopEv is the cheapest possible typed event.
type nopEv struct{ n int }

func (e *nopEv) Dispatch(uint8) { e.n++ }

// TestTypedEventScheduleAllocFree pins the allocation-free contract of the
// typed scheduling path: once the queue's backing array has grown to its
// steady-state size, AtEvent + Step allocate nothing per event.
func TestTypedEventScheduleAllocFree(t *testing.T) {
	s := New()
	ev := &nopEv{}
	const batch = 512
	// Warm the queue's backing array to its high-water mark.
	for i := 0; i < batch; i++ {
		s.AtEvent(Cycle(i%13), ev, 0)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			s.AtEvent(s.Now()+Cycle(i%13), ev, uint8(i&1))
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+run allocated %v objects per batch, want 0", allocs)
	}
}

// TestResourceReserveAllocFree pins Reserve/Delay as allocation-free.
func TestResourceReserveAllocFree(t *testing.T) {
	r := NewResource("x", 16)
	allocs := testing.AllocsPerRun(100, func() {
		r.Delay(0, 64)
		r.Reserve(0, 64)
	})
	if allocs != 0 {
		t.Fatalf("Reserve/Delay allocated %v objects per call pair, want 0", allocs)
	}
}

// BenchmarkHeapPushPop measures the specialized heap on the push/pop mix the
// simulator produces: a bounded queue with interleaved scheduling while
// draining, timestamps spread over a small window.
func BenchmarkHeapPushPop(b *testing.B) {
	s := New()
	ev := &nopEv{}
	const window = 1024
	for i := 0; i < window; i++ {
		s.AtEvent(Cycle(i*7%97), ev, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AtEvent(s.Now()+Cycle(i*31%211), ev, 0)
		s.Step()
	}
}

// BenchmarkTypedSchedule measures pure AtEvent cost (drained between
// batches so the heap stays at a steady size).
func BenchmarkTypedSchedule(b *testing.B) {
	s := New()
	ev := &nopEv{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AtEvent(s.Now()+Cycle(i&255), ev, 0)
		if i&1023 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkResourceReserve measures the next-free-time reservation rule.
func BenchmarkResourceReserve(b *testing.B) {
	r := NewResource("dram", 768)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reserve(Cycle(i), 128)
	}
}
