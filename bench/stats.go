package main

import (
	"time"

	"mcmgpu/internal/stats"
)

// quantile returns the q-quantile of xs with linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	return stats.Quantile(stats.Sorted(xs), q)
}

// tailPerMille lists the percentiles op_ms_tail may use, highest first, in
// thousandths. Each workload times a fixed minimum number of ops, so its
// tail percentile does not change from run to run: p90 on suite and
// service, the median on observe and sweep, which time fewer than 100.
var tailPerMille = []int{900, 500}

// tailQuantile returns the highest percentile of tailPerMille that leaves
// at least ten of n samples beyond it, as a fraction. Below twenty samples
// no percentile qualifies and the median is returned.
func tailQuantile(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 1000
		}
	}
	return 0.5
}

// quartiles returns the first quartile, the median and the third quartile
// of xs the way Python's statistics.quantiles(xs, n=4) and
// statistics.median compute them, so -repeat reports the same spread the
// benchmark's acceptance rule measures. It needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := stats.Sorted(xs)
	n := len(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), med, cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf repeats fn n times and returns the median of the durations it
// reports, the way every workload measures its set-up.
func medianOf(n int, fn func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(quantile(ds, 0.5)), nil
}
