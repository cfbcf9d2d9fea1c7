package engine

// Microbenchmarks for the event-engine hot path, plus AllocsPerRun
// regression tests pinning the typed-event path at zero steady-state
// allocations. The end-to-end kernel benchmark lives at the repo root
// (BenchmarkSimulatorThroughput); these isolate the engine's own costs.

import (
	"reflect"
	"testing"
)

// nop is the cheapest possible handler.
type nop struct{ n int }

func (e *nop) Dispatch(uint32, uint8) { e.n++ }

// TestTypedEventScheduleAllocFree pins the allocation-free contract of the
// scheduling path: once the calendar's node slab and the far heap have
// grown to their steady-state size, At + Step allocate nothing per event,
// near or far.
func TestTypedEventScheduleAllocFree(t *testing.T) {
	s := New()
	s.SetHandler(&nop{})
	const batch = 512
	delay := func(i int) Cycle {
		if i%32 == 0 {
			return 2*calendarWindow + Cycle(i)
		}
		return Cycle(i % 13)
	}
	// Warm the queue to its high-water mark.
	for i := 0; i < batch; i++ {
		s.At(delay(i), uint32(i), 0)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			s.At(s.Now()+delay(i), uint32(i), uint8(i&1))
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+run allocated %v objects per batch, want 0", allocs)
	}
}

// TestQueueEntriesHoldNoPointers pins the queue's entry layout: a 12-byte
// calendar node and a 24-byte far-heap entry, neither holding a pointer,
// slice, map, string, interface or func, so the collector never scans the
// node slab or the far heap.
func TestQueueEntriesHoldNoPointers(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{{node{}, 12}, {event{}, 24}} {
		typ := reflect.TypeOf(c.v)
		if typ.Size() != c.size {
			t.Errorf("%s is %d bytes, want %d", typ, typ.Size(), c.size)
		}
		for i := 0; i < typ.NumField(); i++ {
			switch k := typ.Field(i).Type.Kind(); k {
			case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
				reflect.Interface, reflect.Func, reflect.Chan, reflect.Struct, reflect.Array:
				t.Errorf("%s.%s is a %s", typ, typ.Field(i).Name, k)
			}
		}
	}
}

// TestResourceReserveAllocFree pins Reserve as allocation-free.
func TestResourceReserveAllocFree(t *testing.T) {
	r := newResource("x", 16)
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
			s.SetHandler(&nop{})
			const queued = 1024
			for i := 0; i < queued; i++ {
				s.At(Cycle(i*7%bc.spread), uint32(i), 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.At(s.Now()+Cycle(i*31%bc.spread), uint32(i), 0)
				s.Step()
			}
		})
	}
}

// BenchmarkTypedSchedule measures pure At cost (drained between batches so
// the queue stays at a steady size).
func BenchmarkTypedSchedule(b *testing.B) {
	s := New()
	s.SetHandler(&nop{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+Cycle(i&255), uint32(i), 0)
		if i&1023 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkResourceReserve measures the next-free-time reservation rule.
func BenchmarkResourceReserve(b *testing.B) {
	r := newResource("dram", 768)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reserve(Cycle(i), 128)
	}
}
