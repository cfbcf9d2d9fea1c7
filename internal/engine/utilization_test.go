package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestUtilizationSaturatedMidRun is the headline regression for interval
// utilization. A saturated resource has nextFree far ahead of the clock, and
// the old implementation divided the full booked occupancy by the elapsed
// cycles: 1000 busy cycles over a 100-cycle window read as 10.0. The
// time-clipped BusyThrough must read ~1.0 and never more.
func TestUtilizationSaturatedMidRun(t *testing.T) {
	r := newResource("link", 1)
	r.Reserve(0, 1000) // occupies [0, 1000)
	u := r.Utilization(100)
	if u > 1.0 {
		t.Fatalf("saturated resource mid-run reads %v, want <= 1.0 (old implementation read 10.0)", u)
	}
	if u < 0.99 {
		t.Fatalf("saturated resource mid-run reads %v, want ~1.0", u)
	}
	// Once the booked occupancy has drained, the value must be exactly what
	// an unsampled run reports: the busy total over elapsed.
	if got, want := r.Utilization(2000), 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("drained Utilization = %v, want %v", got, want)
	}
	if got := r.busy; got != 1000 {
		t.Fatalf("busy total = %v, want 1000 (end-of-run totals must be untouched)", got)
	}
}

// TestBusyThroughMonotoneAcrossGaps covers the shape the naive
// busy-minus-backlog formula got wrong: a gap between reservations followed
// by a new reservation must never make BusyThrough go backwards or credit
// occupancy that has not happened yet.
func TestBusyThroughMonotoneAcrossGaps(t *testing.T) {
	r := newResource("x", 1)
	r.Reserve(0, 10) // [0, 10)
	if got := r.BusyThrough(10); got != 10 {
		t.Fatalf("BusyThrough(10) = %v, want 10", got)
	}
	// Idle [10, 100), then a long reservation [100, 200).
	r.Reserve(100, 100)
	// Nothing of the second span has elapsed at cycle 50.
	if got := r.BusyThrough(50); got != 10 {
		t.Fatalf("BusyThrough(50) = %v, want 10 (future reservation must not credit)", got)
	}
	// Halfway through the second span.
	got := r.BusyThrough(150)
	if got < 10 || got > 60+1e-9 {
		t.Fatalf("BusyThrough(150) = %v, want in [10, 60]", got)
	}
	// Drained: exact.
	if got := r.BusyThrough(200); got != 110 {
		t.Fatalf("BusyThrough(200) = %v, want 110", got)
	}
}

// TestBusyThroughProperties is the testing/quick property test: for any
// random reservation sequence observed at any monotone sample times,
//   - BusyThrough is monotone non-decreasing,
//   - each interval's busy delta is within [0, elapsed + rounding slop], so
//     the sampler's clamped utilization is always in [0, 1],
//   - after the resource drains, the settled total equals the busy total
//     exactly, and the interval deltas telescope to it.
//
// Fixed seeds that once failed run first, so a random draw is never the
// only thing that catches them.
func TestBusyThroughProperties(t *testing.T) {
	throughputs := []float64{0.5, 1, 2, 3, 768}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newResource("p", throughputs[rng.Intn(len(throughputs))])

		var now Cycle
		prev := 0.0
		var sum float64
		var lastSample Cycle
		for step := 0; step < 60; step++ {
			now += Cycle(rng.Intn(50))
			if rng.Intn(3) > 0 {
				r.Reserve(now, uint64(1+rng.Intn(2000)))
			}
			if rng.Intn(2) == 0 && now > lastSample {
				got := r.BusyThrough(now)
				if got < prev {
					t.Errorf("seed %d: BusyThrough went backwards: %v after %v", seed, got, prev)
					return false
				}
				delta := got - prev
				elapsed := float64(now - lastSample)
				// toCycle rounding lets the drain branch settle up to half a
				// cycle of occupancy past the query time; beyond that slop a
				// delta must never exceed the cycles that elapsed.
				if delta > elapsed+0.5+1e-6 {
					t.Errorf("seed %d: delta %v over %v elapsed cycles (util %v > 1)",
						seed, delta, elapsed, delta/elapsed)
					return false
				}
				sum += delta
				prev = got
				lastSample = now
			}
		}
		// Drain: query at the published completion time of all occupancy.
		end := toCycle(r.nextFree)
		if end < now {
			end = now
		}
		final := r.BusyThrough(end)
		if final != r.busy {
			t.Errorf("seed %d: drained BusyThrough = %v, want exactly the busy total %v",
				seed, final, r.busy)
			return false
		}
		sum += final - prev
		if math.Abs(sum-r.busy) > 1e-9*math.Max(1, r.busy) {
			t.Errorf("seed %d: interval deltas sum to %v, want the busy total %v", seed, sum, r.busy)
			return false
		}
		return true
	}
	// 285729346974021310: a reservation in the cycle of the last sample ends
	// before the next published cycle, and the drained query at that cycle
	// returned the settled total without it.
	for _, seed := range []int64{285729346974021310} {
		if !prop(seed) {
			t.Fatalf("fixed seed %d failed", seed)
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
