package workload

// MaxLinesPerOp bounds the number of distinct cache lines one warp memory
// operation can touch (a fully diverged warp on 128-byte lines).
const MaxLinesPerOp = 8

// rng is a splitmix64 generator: tiny, fast, allocation-free and
// deterministic across platforms, which keeps access streams reproducible.
// Its 64-bit state is held as two 32-bit halves, which keeps a WarpStream
// at 4-byte alignment (see WarpStream).
type rng struct{ lo, hi uint32 }

func (r *rng) next() uint64 {
	s := (uint64(r.hi)<<32 | uint64(r.lo)) + 0x9e3779b97f4a7c15
	r.lo, r.hi = uint32(s), uint32(s>>32)
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n). n must be positive.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// chance returns true with probability p.
func (r *rng) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(r.next()>>11)*(1.0/(1<<53)) < p
}

// A warp's access stream within one kernel launch is split in two: the
// CTAStream its CTA's warps share, and the WarpStream each warp advances.
// The stream depends only on (spec seed, CTA, warp), not on the kernel
// iteration: convergence-loop launches replay the same accesses, giving the
// cross-kernel locality of Figure 12.
//
// Every line address and region base lies below the footprint, and every
// counter at or below the op count, so they are held in 32 bits
// (Spec.Validate bounds both); arithmetic widens them to 64 bits first,
// which keeps every generated address that of a 64-bit stream. Neither type
// holds a pointer: the caller passes the spec (and the CTAStream) to every
// call, so contexts that embed them stay pointer-free.

// CTAStream is the stream state the warps of one CTA share: the CTA's grid
// index, its per-warp op count and the bases its accesses are drawn around.
type CTAStream struct {
	cta         int32
	ops         int32  // this CTA's per-warp op count (work imbalance)
	regionStart uint32 // first line of the CTA's own region
	regionLen   uint32
	rowPanel    uint32 // base of this CTA's row panel (2-D grids)
	colPanel    uint32 // base of this CTA's column panel
	rowPhase    uint32 // k-loop skew within the row panel (PatGEMM2D)
	colPhase    uint32 // k-loop skew within the column panel
}

// Init resets c to the shared stream state of CTA cta, discarding any prior
// state, so pooled CTA contexts can embed a CTAStream by value.
func (c *CTAStream) Init(spec *Spec, cta int) {
	rowBase, colBase, ownBase, perCTA := spec.Regions()
	*c = CTAStream{
		cta:         int32(cta),
		ops:         int32(spec.OpsForCTA(cta)),
		regionStart: uint32(ownBase + uint64(cta)*perCTA),
		regionLen:   uint32(perCTA),
	}
	if spec.GridW > 0 {
		x, y := cta%spec.GridW, cta/spec.GridW
		c.rowPanel = uint32(rowBase + uint64(y)*spec.RowPanelLines)
		c.colPanel = uint32(colBase + uint64(x)*spec.ColPanelLines)
		// Tiled GEMM skews the k-loop so the CTAs along a panel start at
		// staggered offsets (the classic wavefront that avoids hammering one
		// operand block); attention streams K/V in order for every query
		// block, so it keeps the lockstep phase.
		if spec.Pattern == PatGEMM2D {
			if spec.GridW > 1 && spec.RowPanelLines > 0 {
				c.rowPhase = uint32(uint64(x) * skewStep(spec.RowPanelLines, spec.GridW))
			}
			if spec.GridH > 1 && spec.ColPanelLines > 0 {
				c.colPhase = uint32(uint64(y) * skewStep(spec.ColPanelLines, spec.GridH))
			}
		}
	}
}

// WarpStream is one warp's private stream state: its generator, the window
// of recently touched lines it reuses from, its remaining op count and the
// op it is issuing. An op is drawn where it issues, not where the warp
// steps: Next only consumes it, Op draws its write flag and base line, and
// Line produces each of its lines as the caller issues it. The generator is
// the warp's own and only these calls draw from it, so the draws, and with
// them the stream, stay the same however far apart in simulated time the
// caller makes them, as long as it takes each op's lines in order.
//
// A WarpStream is 52 bytes at 4-byte alignment, so a warp context can hold
// it with an 8-byte and a 1-byte field in one 64-byte host cache line.
type WarpStream struct {
	r       rng
	recent  [8]uint32
	left    int32  // ops not yet consumed by Next
	base    uint32 // the current op's first line
	nRecent uint8
	reused  bool // the current op re-touches recent lines: no lane diverges
}

// Init resets w to the stream of warp warp of the CTA whose shared state is
// c, discarding any prior state, so pooled warp contexts can embed a
// WarpStream by value and be relaunched without allocating.
func (w *WarpStream) Init(spec *Spec, c *CTAStream, warp int) {
	// Seed mixes the identifiers so distinct warps get decorrelated streams.
	seed := spec.Seed ^ uint64(c.cta)*0x9e3779b97f4a7c15 ^ uint64(warp)*0xc2b2ae3d27d4eb4f
	*w = WarpStream{r: rng{lo: uint32(seed), hi: uint32(seed >> 32)}, left: c.ops}
}

// Next consumes the warp's next op and reports whether one remained. It
// draws nothing: Op draws the op it consumed.
func (w *WarpStream) Next() bool {
	if w.left == 0 {
		return false
	}
	w.left--
	return true
}

// Op draws the op the last Next consumed and reports whether it writes.
// spec and c must be those w was initialized with, and warp its index
// within the CTA. Line then produces the op's lines.
func (w *WarpStream) Op(spec *Spec, c *CTAStream, warp int) (write bool) {
	write = w.r.chance(spec.WriteFraction)

	// Temporal reuse: re-touch a recently used line.
	if w.nRecent > 0 && w.r.chance(spec.ReuseProb) {
		w.base, w.reused = w.recent[int(w.r.intn(uint64(w.nRecent)))], true
		return write
	}
	i := c.ops - w.left - 1
	w.base, w.reused = uint32(w.genBase(spec, c, int32(warp), i)%spec.FootprintLines), false
	w.recent[(i+1)%int32(len(w.recent))] = w.base
	if w.nRecent < uint8(len(w.recent)) {
		w.nRecent++
	}
	return write
}

// Line returns line l of the op Op drew. The caller takes lines
// l = 0, 1, ..., LinesPerOp-1 in order, each once: a diverged lane draws
// its line from the warp's generator when it issues.
func (w *WarpStream) Line(spec *Spec, l int) uint64 {
	switch {
	case l == 0 || w.reused || spec.Pattern != PatIrregular:
		return (uint64(w.base) + uint64(l)) % spec.FootprintLines
	case spec.ScatterLines > 0:
		// Diverged lanes scatter within the scatter region (a graph
		// kernel's lanes chase different neighbors into the same
		// auxiliary arrays).
		return spec.SharedLines + w.r.intn(spec.ScatterLines)
	default:
		return w.r.intn(spec.FootprintLines)
	}
}

// genBase produces the base line address for op index i of warp warp
// according to the spec's pattern and locality fractions.
func (w *WarpStream) genBase(sp *Spec, c *CTAStream, warp, i int32) uint64 {
	roll := float64(w.r.next()>>11) * (1.0 / (1 << 53))

	// Shared hot region.
	if roll < sp.SharedFraction && sp.SharedLines > 0 {
		return w.r.intn(sp.SharedLines)
	}
	roll -= sp.SharedFraction

	// Halo accesses into the neighboring CTA's region. Only a CTA with a
	// predecessor steps backward, so the halo never leaves the own regions
	// for the reserved prefix below them (shared, scatter and panels); a
	// successor region past the footprint falls back to the CTA's own.
	if roll < sp.NeighborFraction {
		dir := uint64(1)
		if w.r.next()&1 == 0 && c.cta > 0 {
			dir = ^uint64(0) // -1
		}
		regionStart, regionLen := uint64(c.regionStart), uint64(c.regionLen)
		nStart := regionStart + dir*regionLen
		if nStart >= sp.FootprintLines {
			nStart = regionStart
		}
		// Halo touches the edge of the neighbor's region.
		edge := w.r.intn(haloWindow(regionLen))
		return nStart + edge
	}
	roll -= sp.NeighborFraction

	// Panel streams: the A panel this grid row shares, then the B (or K/V)
	// panel this grid column shares. The walk position depends only on
	// (warp, op), so every CTA along the panel streams it in the same
	// phase — the lockstep k-loop of a tiled GEMM.
	if roll < sp.RowPanelFraction && sp.RowPanelLines > 0 {
		seq := uint64(c.rowPhase) + uint64(warp)*uint64(sp.MemOpsPerWarp) + uint64(i)
		return uint64(c.rowPanel) + seq%sp.RowPanelLines
	}
	roll -= sp.RowPanelFraction
	if roll < sp.ColPanelFraction && sp.ColPanelLines > 0 {
		seq := uint64(c.colPhase) + uint64(warp)*uint64(sp.MemOpsPerWarp) + uint64(i)
		return uint64(c.colPanel) + seq%sp.ColPanelLines
	}
	roll -= sp.ColPanelFraction

	// Scattered accesses: confined to the scatter region when one exists,
	// uniform over the whole footprint otherwise.
	if roll < sp.RandomFraction {
		if sp.ScatterLines > 0 {
			return sp.SharedLines + w.r.intn(sp.ScatterLines)
		}
		return w.r.intn(sp.FootprintLines)
	}

	// Own region, ordered by pattern.
	seq := uint64(warp)*uint64(sp.MemOpsPerWarp) + uint64(i)
	regionStart, regionLen := uint64(c.regionStart), uint64(c.regionLen)
	switch sp.Pattern {
	case PatStrided:
		return regionStart + (seq*sp.stride())%regionLen
	case PatComputeTile:
		return regionStart + seq%computeTile(regionLen)
	default:
		return regionStart + seq%regionLen
	}
}
