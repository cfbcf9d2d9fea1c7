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
// typed scheduling path: once the calendar's node slab and the far heap have
// grown to their steady-state size, AtEvent + Step allocate nothing per
// event, near or far.
func TestTypedEventScheduleAllocFree(t *testing.T) {
	s := New()
	ev := &nopEv{}
	const batch = 512
	delay := func(i int) Cycle {
		if i%32 == 0 {
			return 2*calendarWindow + Cycle(i)
		}
		return Cycle(i % 13)
	}
	// Warm the queue to its high-water mark.
	for i := 0; i < batch; i++ {
		s.AtEvent(delay(i), ev, 0)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			s.AtEvent(s.Now()+delay(i), ev, uint8(i&1))
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+run allocated %v objects per batch, want 0", allocs)
	}
}

// TestResourceReserveAllocFree pins Reserve as allocation-free.
func TestResourceReserveAllocFree(t *testing.T) {
	r := NewResource("x", 16)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reserve(0, 64)
	})
	if allocs != 0 {
		t.Fatalf("Reserve allocated %v objects per call, want 0", allocs)
	}
}

// BenchmarkQueuePushPop measures the queue on the push/pop mix the
// simulator produces: a bounded queue with interleaved scheduling while
// draining. "near" keeps every delay inside the calendar window, as the
// paper's workloads do; "far" spreads delays to three windows, so most
// events pass through the far heap and migrate into the calendar.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, bc := range []struct {
		name   string
		spread int
	}{{"near", 211}, {"far", 3 * calendarWindow}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New()
			ev := &nopEv{}
			const queued = 1024
			for i := 0; i < queued; i++ {
				s.AtEvent(Cycle(i*7%bc.spread), ev, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AtEvent(s.Now()+Cycle(i*31%bc.spread), ev, 0)
				s.Step()
			}
		})
	}
}

// BenchmarkTypedSchedule measures pure AtEvent cost (drained between
// batches so the queue stays at a steady size).
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
