// Package stats provides the small statistical toolkit used throughout the
// simulator and its experiment harness: named counters, hit-rate ratios, and
// the aggregation helpers (arithmetic mean, geometric mean) the paper uses
// when reporting per-category results.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Counter accumulates a monotonically increasing count.
type Counter struct {
	n uint64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the accumulated count.
func (c *Counter) Value() uint64 { return c.n }

// Ratio tracks a hits/total pair, e.g. a cache hit rate.
type Ratio struct {
	Hits  uint64
	Total uint64
}

// Observe records one event that either hit or missed.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, or 0 for an empty slice.
// All inputs must be positive; a geometric mean over non-positive values is
// meaningless. Such values used to panic mid-report, killing a whole
// experiment run over one degenerate cell; they now return a descriptive
// error for the caller to render (see report.Cell).
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	var s float64
	for i, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: GeoMean of non-positive value %v (element %d of %d)", x, i, len(xs))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sorted returns a sorted copy of xs. It is used to build the paper's
// Figure 15 s-curve.
func Sorted(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}
