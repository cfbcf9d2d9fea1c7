package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestQuantile(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("Quantile(nil) = %v, want 0", got)
	}
	one := []float64{7}
	for _, q := range []float64{0, 0.5, 1} {
		if got := Quantile(one, q); got != 7 {
			t.Fatalf("Quantile([7], %v) = %v, want 7", q, got)
		}
	}
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
		{-1, 1}, {2, 5}, {math.NaN(), 1},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
}

// TestQuantileAgainstSortRank cross-checks interpolation against a direct
// rank computation on random data.
func TestQuantileAgainstSortRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
		got := Quantile(xs, q)
		lo := xs[int(q*float64(len(xs)-1))]
		hi := xs[int(math.Ceil(q*float64(len(xs)-1)))]
		if got < lo || got > hi {
			t.Fatalf("Quantile(q=%v) = %v outside bracketing ranks [%v, %v]", q, got, lo, hi)
		}
	}
}

// TestP2Exact pins that under five observations P² is exact.
func TestP2Exact(t *testing.T) {
	p := NewP2(0.5)
	if p.Value() != 0 {
		t.Fatalf("empty P2 value = %v, want 0", p.Value())
	}
	p.Add(3)
	p.Add(1)
	if got := p.Value(); got != 2 {
		t.Fatalf("P2 median of {1,3} = %v, want 2", got)
	}
	p.Add(2)
	p.Add(9)
	if got := p.Value(); got != 2.5 {
		t.Fatalf("P2 median of {1,2,3,9} = %v, want 2.5", got)
	}
}

// TestP2Accuracy bounds the P² estimate on known distributions: within a few
// percentile ranks of the exact quantile over 50k samples.
func TestP2Accuracy(t *testing.T) {
	dists := map[string]func(*rand.Rand) float64{
		"uniform": func(r *rand.Rand) float64 { return r.Float64() },
		"normal":  func(r *rand.Rand) float64 { return r.NormFloat64() },
		"exp":     func(r *rand.Rand) float64 { return r.ExpFloat64() },
	}
	for name, gen := range dists {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			rng := rand.New(rand.NewSource(42))
			p := NewP2(q)
			xs := make([]float64, 50000)
			for i := range xs {
				x := gen(rng)
				xs[i] = x
				p.Add(x)
			}
			sort.Float64s(xs)
			est := p.Value()
			// Rank-space error bound: the estimate must sit between the
			// exact q-0.01 and q+0.01 quantiles.
			lo := Quantile(xs, q-0.01)
			hi := Quantile(xs, q+0.01)
			if est < lo || est > hi {
				t.Errorf("%s q=%v: P2 estimate %v outside exact [%v, %v] (q±0.01)", name, q, est, lo, hi)
			}
		}
	}
}

// TestReservoirExactWhenSmall: with n <= k the reservoir holds everything, so
// its quantiles are exact.
func TestReservoirExactWhenSmall(t *testing.T) {
	r := NewReservoir(64)
	for i := 0; i < 50; i++ {
		r.Add(uint64(i), float64(i))
	}
	if r.Len() != 50 {
		t.Fatalf("Len = %d, want 50", r.Len())
	}
	vals := r.Values(nil)
	if got := Quantile(vals, 0.5); got != 24.5 {
		t.Fatalf("median = %v, want 24.5", got)
	}
}

// TestReservoirOrderIndependent: the kept set is a pure function of the
// observation set, whatever the insertion order or merge partitioning.
func TestReservoirOrderIndependent(t *testing.T) {
	const n, k = 10000, 256
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}

	seq := NewReservoir(k)
	for i, v := range vals {
		seq.Add(uint64(i), v)
	}

	// Reversed insertion order.
	rev := NewReservoir(k)
	for i := n - 1; i >= 0; i-- {
		rev.Add(uint64(i), vals[i])
	}

	// Partitioned into 7 chunks merged out of order.
	parts := make([]*Reservoir, 7)
	for p := range parts {
		parts[p] = NewReservoir(k)
	}
	for i, v := range vals {
		parts[i%7].Add(uint64(i), v)
	}
	merged := NewReservoir(k)
	for _, p := range []int{3, 0, 6, 1, 5, 2, 4} {
		merged.Merge(parts[p])
	}

	a, b, c := seq.Values(nil), rev.Values(nil), merged.Values(nil)
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("sample diverges at %d: seq=%v rev=%v merged=%v", i, a[i], b[i], c[i])
		}
	}
}

// TestReservoirAccuracy bounds the sampling error of reservoir quantiles:
// with k=4096 over 200k uniform values, p95/p99 within ±0.015 rank.
func TestReservoirAccuracy(t *testing.T) {
	const n, k = 200000, 4096
	r := NewReservoir(k)
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, n)
	for i := range xs {
		x := rng.Float64()
		xs[i] = x
		r.Add(uint64(i), x)
	}
	sort.Float64s(xs)
	vals := r.Values(nil)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		est := Quantile(vals, q)
		lo, hi := Quantile(xs, q-0.015), Quantile(xs, q+0.015)
		if est < lo || est > hi {
			t.Errorf("q=%v: reservoir estimate %v outside exact [%v, %v] (q±0.015)", q, est, lo, hi)
		}
	}
}

func TestReservoirAddAllocs(t *testing.T) {
	r := NewReservoir(128)
	for i := 0; i < 1000; i++ {
		r.Add(uint64(i), float64(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Add(12345, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("Reservoir.Add allocates %v/op once full, want 0", allocs)
	}
}

// TestExactSumExact: the classic cancellation cases plain summation gets
// wrong.
func TestExactSumExact(t *testing.T) {
	var s ExactSum
	s.Add(1e16)
	s.Add(1)
	s.Add(-1e16)
	if got := s.Sum(); got != 1 {
		t.Fatalf("1e16 + 1 - 1e16 = %v, want 1", got)
	}
	s = ExactSum{}
	for i := 0; i < 10; i++ {
		s.Add(0.1)
	}
	// The exact real sum of ten float64(0.1)s rounds to exactly 1.0;
	// naive left-to-right summation yields 0.9999999999999999.
	if got := s.Sum(); got != 1.0 {
		t.Fatalf("fsum(10 * 0.1) = %v, want exactly 1", got)
	}
	var naive float64
	for i := 0; i < 10; i++ {
		naive += 0.1
	}
	if naive == 1.0 {
		t.Fatal("naive summation unexpectedly exact; test is vacuous")
	}
}

// TestExactSumOrderIndependent: any permutation and any Merge partitioning
// produces the bit-identical rounded sum.
func TestExactSumOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 5000)
	for i := range vals {
		// Wildly varying magnitudes to stress rounding.
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	var fwd ExactSum
	for _, v := range vals {
		fwd.Add(v)
	}
	want := fwd.Sum()

	var rev ExactSum
	for i := len(vals) - 1; i >= 0; i-- {
		rev.Add(vals[i])
	}
	if got := rev.Sum(); got != want {
		t.Fatalf("reversed sum %v != forward sum %v", got, want)
	}

	parts := make([]ExactSum, 9)
	for i, v := range vals {
		parts[i%9].Add(v)
	}
	var merged ExactSum
	for i := len(parts) - 1; i >= 0; i-- {
		merged.Merge(&parts[i])
	}
	if got := merged.Sum(); got != want {
		t.Fatalf("merged sum %v != forward sum %v", got, want)
	}
}

func TestExactSumAmortizedAllocs(t *testing.T) {
	var s ExactSum
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for _, v := range vals {
		s.Add(v)
	}
	i := 0
	allocs := testing.AllocsPerRun(4096, func() {
		s.Add(vals[i%len(vals)])
		i++
	})
	if allocs > 0.01 {
		t.Fatalf("ExactSum.Add allocates %v/op in steady state, want ~0", allocs)
	}
}
