package stats

import (
	"math"
	"sort"
)

// Quantile returns the exact q-quantile of an ascending-sorted slice using
// linear interpolation between closest ranks (the "type 7" estimator most
// tools default to): position q*(n-1), interpolated between its floor and
// ceil neighbors. q is clamped to [0, 1]; an empty slice yields 0.
//
// The input must already be sorted; passing an unsorted slice silently
// returns a meaningless value, so callers aggregate first and sort once.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 || math.IsNaN(q) {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if frac == 0 || i+1 >= n {
		return sorted[i]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// P2 is the Jain/Chlamtac P-squared streaming quantile estimator: five
// markers tracking the running q-quantile in O(1) memory, exact until five
// observations have arrived. It is sequential — the estimate depends on
// arrival order — so the metrics aggregator only offers it in single-stream
// mode; the order-independent estimator is Reservoir.
type P2 struct {
	q       float64
	n       int
	heights [5]float64
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	incr    [5]float64 // desired-position increments per observation
}

// NewP2 returns a P² estimator for the q-quantile, q in (0, 1).
func NewP2(q float64) *P2 {
	p := &P2{q: q}
	p.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Add feeds one observation.
func (p *P2) Add(x float64) {
	if p.n < 5 {
		p.heights[p.n] = x
		p.n++
		if p.n == 5 {
			sort.Float64s(p.heights[:])
			for i := range p.pos {
				p.pos[i] = float64(i + 1)
			}
			q := p.q
			p.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
		}
		return
	}
	p.n++
	// Find the cell k containing x and update the extreme markers.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.want {
		p.want[i] += p.incr[i]
	}
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := p.parabolic(i, s)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, s)
			}
			p.pos[i] += s
		}
	}
}

func (p *P2) parabolic(i int, s float64) float64 {
	return p.heights[i] + s/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+s)*(p.heights[i+1]-p.heights[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-s)*(p.heights[i]-p.heights[i-1])/(p.pos[i]-p.pos[i-1]))
}

func (p *P2) linear(i int, s float64) float64 {
	j := i + int(s)
	return p.heights[i] + s*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current q-quantile estimate. Under five observations it
// is the exact quantile of what has arrived.
func (p *P2) Value() float64 {
	if p.n == 0 {
		return 0
	}
	if p.n < 5 {
		tmp := make([]float64, p.n)
		copy(tmp, p.heights[:p.n])
		sort.Float64s(tmp)
		return Quantile(tmp, p.q)
	}
	return p.heights[2]
}

// rsItem is one retained Reservoir observation: the selection hash, the
// caller's unique tag (total-order tie-break), and the value.
type rsItem struct {
	hash uint64
	tag  uint64
	v    float64
}

// Reservoir is a deterministic, order-independent, mergeable fixed-size
// sample: it keeps the k observations whose hashed tags are smallest. Because
// the kept set is a pure function of the observation *set* (each observation
// carries a unique caller-assigned tag, e.g. its byte offset in an input
// file), any partitioning of the input into parallel chunks — and any merge
// order — yields the same sample, which is what makes mcmstat's quantiles
// byte-identical across worker counts. Quantiles read from the sample carry
// the usual sampling error, O(1/sqrt(k)) in rank.
type Reservoir struct {
	k     int
	items []rsItem // max-heap on (hash, tag) once full
}

// NewReservoir returns a reservoir keeping k observations (k >= 1).
func NewReservoir(k int) *Reservoir {
	if k < 1 {
		k = 1
	}
	return &Reservoir{k: k}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, high-quality bijection
// from tags to selection hashes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// less orders items by (hash, tag): tags are unique, so the order is total
// and the bottom-k set is unambiguous.
func (a rsItem) less(b rsItem) bool {
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	return a.tag < b.tag
}

// Add offers one observation under a unique tag. Allocation-free once the
// reservoir is full.
func (r *Reservoir) Add(tag uint64, v float64) {
	it := rsItem{hash: splitmix64(tag), tag: tag, v: v}
	if len(r.items) < r.k {
		r.items = append(r.items, it)
		if len(r.items) == r.k {
			r.heapify()
		}
		return
	}
	if !it.less(r.items[0]) {
		return
	}
	r.items[0] = it
	r.siftDown(0)
}

func (r *Reservoir) heapify() {
	for i := len(r.items)/2 - 1; i >= 0; i-- {
		r.siftDown(i)
	}
}

func (r *Reservoir) siftDown(i int) {
	n := len(r.items)
	for {
		l, rr := 2*i+1, 2*i+2
		big := i
		if l < n && r.items[big].less(r.items[l]) {
			big = l
		}
		if rr < n && r.items[big].less(r.items[rr]) {
			big = rr
		}
		if big == i {
			return
		}
		r.items[i], r.items[big] = r.items[big], r.items[i]
		i = big
	}
}

// Merge folds o's observations into r. Merging partial reservoirs built over
// disjoint partitions equals building one reservoir over the union.
func (r *Reservoir) Merge(o *Reservoir) {
	for _, it := range o.items {
		if len(r.items) < r.k {
			r.items = append(r.items, it)
			if len(r.items) == r.k {
				r.heapify()
			}
			continue
		}
		if it.less(r.items[0]) {
			r.items[0] = it
			r.siftDown(0)
		}
	}
}

// Len returns the number of retained observations.
func (r *Reservoir) Len() int { return len(r.items) }

// Each calls fn for every retained (tag, value) pair in unspecified order;
// the aggregator's spill path uses it to serialize the reservoir.
func (r *Reservoir) Each(fn func(tag uint64, v float64)) {
	for _, it := range r.items {
		fn(it.tag, it.v)
	}
}

// Values appends the retained values to dst and returns it sorted ascending,
// ready for Quantile.
func (r *Reservoir) Values(dst []float64) []float64 {
	for _, it := range r.items {
		dst = append(dst, it.v)
	}
	sort.Float64s(dst)
	return dst
}

// ExactSum accumulates float64 values with no rounding error: the running
// sum is held as a Shewchuk expansion of non-overlapping partials, and Sum
// rounds the exact total to the nearest float64 (math.Fsum-style, including
// the round-to-even correction). Because the expansion represents the true
// real-number sum, the result is independent of the order values were added
// in and of how they were partitioned across Merge calls — the property the
// parallel aggregator's byte-identical-across-workers contract rests on.
type ExactSum struct {
	parts []float64 // non-overlapping, increasing magnitude
}

// Add folds x into the expansion. Amortized allocation-free: the partials
// slice reaches its steady-state length (a handful of elements) quickly and
// is reused in place.
func (s *ExactSum) Add(x float64) {
	i := 0
	for _, y := range s.parts {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			s.parts[i] = lo
			i++
		}
		x = hi
	}
	s.parts = append(s.parts[:i], x)
}

// Merge folds o's partials into s; the result is the exact sum of both
// streams.
func (s *ExactSum) Merge(o *ExactSum) {
	for _, p := range o.parts {
		s.Add(p)
	}
}

// Parts returns the internal partials; the aggregator's spill path
// serializes them (Add-ing each part back reconstructs the exact state).
func (s *ExactSum) Parts() []float64 { return s.parts }

// Sum returns the exact total correctly rounded to float64.
func (s *ExactSum) Sum() float64 {
	n := len(s.parts)
	if n == 0 {
		return 0
	}
	// Sum from largest magnitude down, stopping at the first non-zero
	// residual; then apply the half-way round-to-even correction exactly as
	// CPython's math.fsum does.
	hi := s.parts[n-1]
	lo := 0.0
	j := n - 1
	for j > 0 {
		j--
		x, y := hi, s.parts[j]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	if j > 0 && ((lo < 0 && s.parts[j-1] < 0) || (lo > 0 && s.parts[j-1] > 0)) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}
