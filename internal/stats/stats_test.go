package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero Counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Inc()
	if c.Value() != 2 {
		t.Fatalf("Value = %d, want 2", c.Value())
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	r.Observe(true)
	r.Observe(true)
	r.Observe(false)
	r.Observe(false)
	if r.Hits != 2 || r.Total != 4 {
		t.Fatalf("Hits/Total = %d/%d, want 2/4", r.Hits, r.Total)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean(nil)
	if err != nil || got != 0 {
		t.Fatalf("GeoMean(nil) = %v, %v", got, err)
	}
	got, err = GeoMean([]float64{2, 8})
	if err != nil {
		t.Fatalf("GeoMean(2,8): %v", err)
	}
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", got)
	}
}

func TestGeoMeanRejectsNonPositive(t *testing.T) {
	for _, xs := range [][]float64{{1, 0}, {-2}, {3, 4, -1}} {
		if got, err := GeoMean(xs); err == nil {
			t.Errorf("GeoMean(%v) = %v, want error", xs, got)
		}
	}
}

func TestMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 {
		t.Fatalf("Max = %v", Max(xs))
	}
	if Max(nil) != 0 {
		t.Fatalf("Max of empty should be 0")
	}
}

func TestSortedDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	out := Sorted(xs)
	if !sort.Float64sAreSorted(out) {
		t.Fatalf("Sorted result not sorted: %v", out)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Sorted mutated input: %v", xs)
	}
}

// Property: the geometric mean lies between min and max, and equals the
// arithmetic mean only when it must (we just check the bounds).
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			xs = append(xs, float64(r)+1) // positive
		}
		if len(xs) == 0 {
			return true
		}
		gm, err := GeoMean(xs)
		return err == nil && gm >= Sorted(xs)[0]-1e-9 && gm <= Max(xs)+1e-9 && gm <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
