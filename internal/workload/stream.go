package workload

// MaxLinesPerOp bounds the number of distinct cache lines one warp memory
// operation can touch (a fully diverged warp on 128-byte lines).
const MaxLinesPerOp = 8

// Op is one warp-level step: Compute instructions followed by a memory
// operation touching NumLines cache lines. Its fields are 32 bits wide
// (Spec.Validate bounds every value they take), which keeps a warp's
// in-flight state within a few host cache lines.
type Op struct {
	Write    bool
	NumLines int32
	Compute  int32
	Lines    [MaxLinesPerOp]uint32
}

// rng is a splitmix64 generator: tiny, fast, allocation-free and
// deterministic across platforms, which keeps access streams reproducible.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
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

// Stream generates the deterministic access stream of one warp within one
// kernel launch. The stream depends only on (spec seed, CTA, warp), not on
// the kernel iteration: convergence-loop launches replay the same accesses,
// giving the cross-kernel locality of Figure 12.
//
// Every line address and region base lies below the footprint, and every
// counter at or below the op count, so they are held in 32 bits
// (Spec.Validate bounds both); arithmetic widens them to 64 bits first,
// which keeps every generated address that of a 64-bit stream.
//
// A Stream holds no pointer: the caller passes the spec it was initialized
// with to every Next, so a warp context that embeds one stays pointer-free.
type Stream struct {
	r    rng
	cta  int32
	warp int32 // warp index within the CTA
	op   int32
	ops  int32 // this CTA's per-warp op count (work imbalance)

	regionStart uint32
	regionLen   uint32
	ownBase     uint32 // first own-region line; everything below is reserved
	rowPanel    uint32 // base of this CTA's row panel (2-D grids)
	colPanel    uint32 // base of this CTA's column panel
	rowPhase    uint32 // k-loop skew within the row panel (PatGEMM2D)
	colPhase    uint32 // k-loop skew within the column panel

	recent  [8]uint32
	nRecent int32
}

// NewStream creates the access stream for warp w of CTA c.
func NewStream(spec *Spec, cta, warp int) *Stream {
	s := new(Stream)
	s.Init(spec, cta, warp)
	return s
}

// Init resets s in place to the access stream for warp warp of CTA cta,
// discarding any prior state. It exists so pooled warp contexts can embed a
// Stream by value and be relaunched onto a new CTA without allocating.
func (s *Stream) Init(spec *Spec, cta, warp int) {
	*s = Stream{cta: int32(cta), warp: int32(warp), ops: int32(spec.OpsForCTA(cta))}
	// Seed mixes the identifiers so distinct warps get decorrelated streams.
	s.r = rng{s: spec.Seed ^ uint64(cta)*0x9e3779b97f4a7c15 ^ uint64(warp)*0xc2b2ae3d27d4eb4f}
	rowBase, colBase, ownBase, perCTA := spec.Regions()
	s.ownBase = uint32(ownBase)
	s.regionStart = uint32(ownBase + uint64(cta)*perCTA)
	s.regionLen = uint32(perCTA)
	if spec.GridW > 0 {
		x, y := cta%spec.GridW, cta/spec.GridW
		s.rowPanel = uint32(rowBase + uint64(y)*spec.RowPanelLines)
		s.colPanel = uint32(colBase + uint64(x)*spec.ColPanelLines)
		// Tiled GEMM skews the k-loop so the CTAs along a panel start at
		// staggered offsets (the classic wavefront that avoids hammering one
		// operand block); attention streams K/V in order for every query
		// block, so it keeps the lockstep phase.
		if spec.Pattern == PatGEMM2D {
			if spec.GridW > 1 && spec.RowPanelLines > 0 {
				s.rowPhase = uint32(uint64(x) * skewStep(spec.RowPanelLines, spec.GridW))
			}
			if spec.GridH > 1 && spec.ColPanelLines > 0 {
				s.colPhase = uint32(uint64(y) * skewStep(spec.ColPanelLines, spec.GridH))
			}
		}
	}
}

// Next fills op with the warp's next operation and reports whether one
// remained. sp must be the spec s was initialized with.
func (s *Stream) Next(sp *Spec, op *Op) bool {
	if s.op >= s.ops {
		return false
	}
	i := s.op
	s.op++

	op.Compute = int32(sp.ComputePerMem)
	op.Write = s.r.chance(sp.WriteFraction)
	op.NumLines = int32(sp.LinesPerOp)

	// Temporal reuse: re-touch a recently used line.
	if s.nRecent > 0 && s.r.chance(sp.ReuseProb) {
		base := uint64(s.recent[int(s.r.intn(uint64(s.nRecent)))])
		for l := 0; l < sp.LinesPerOp; l++ {
			op.Lines[l] = uint32((base + uint64(l)) % sp.FootprintLines)
		}
		return true
	}

	base := s.genBase(sp, i)
	coalesced := sp.Pattern != PatIrregular
	for l := 0; l < sp.LinesPerOp; l++ {
		var a uint64
		switch {
		case coalesced || l == 0:
			a = (base + uint64(l)) % sp.FootprintLines
		case sp.ScatterLines > 0:
			// Diverged lanes scatter within the scatter region (a graph
			// kernel's lanes chase different neighbors into the same
			// auxiliary arrays).
			a = sp.SharedLines + s.r.intn(sp.ScatterLines)
		default:
			a = s.r.intn(sp.FootprintLines)
		}
		op.Lines[l] = uint32(a)
	}
	s.remember(op.Lines[0])
	return true
}

// genBase produces the base line address for op index i according to the
// spec's pattern and locality fractions.
func (s *Stream) genBase(sp *Spec, i int32) uint64 {
	roll := float64(s.r.next()>>11) * (1.0 / (1 << 53))

	// Shared hot region.
	if roll < sp.SharedFraction && sp.SharedLines > 0 {
		return s.r.intn(sp.SharedLines)
	}
	roll -= sp.SharedFraction

	// Halo accesses into the neighboring CTA's region. The backward clamp
	// checks against the full reserved prefix (shared + scatter + panels):
	// clamping only at SharedLines would let CTA 0's "neighbor" traffic
	// leak into the scatter or panel regions.
	if roll < sp.NeighborFraction {
		dir := uint64(1)
		if s.r.next()&1 == 0 && s.cta > 0 {
			dir = ^uint64(0) // -1
		}
		regionStart, regionLen := uint64(s.regionStart), uint64(s.regionLen)
		nStart := regionStart + dir*regionLen
		if nStart >= sp.FootprintLines || nStart < uint64(s.ownBase) {
			nStart = regionStart
		}
		// Halo touches the edge of the neighbor's region.
		edge := s.r.intn(haloWindow(regionLen))
		return nStart + edge
	}
	roll -= sp.NeighborFraction

	// Panel streams: the A panel this grid row shares, then the B (or K/V)
	// panel this grid column shares. The walk position depends only on
	// (warp, op), so every CTA along the panel streams it in the same
	// phase — the lockstep k-loop of a tiled GEMM.
	if roll < sp.RowPanelFraction && sp.RowPanelLines > 0 {
		seq := uint64(s.rowPhase) + uint64(s.warp)*uint64(sp.MemOpsPerWarp) + uint64(i)
		return uint64(s.rowPanel) + seq%sp.RowPanelLines
	}
	roll -= sp.RowPanelFraction
	if roll < sp.ColPanelFraction && sp.ColPanelLines > 0 {
		seq := uint64(s.colPhase) + uint64(s.warp)*uint64(sp.MemOpsPerWarp) + uint64(i)
		return uint64(s.colPanel) + seq%sp.ColPanelLines
	}
	roll -= sp.ColPanelFraction

	// Scattered accesses: confined to the scatter region when one exists,
	// uniform over the whole footprint otherwise.
	if roll < sp.RandomFraction {
		if sp.ScatterLines > 0 {
			return sp.SharedLines + s.r.intn(sp.ScatterLines)
		}
		return s.r.intn(sp.FootprintLines)
	}

	// Own region, ordered by pattern.
	seq := uint64(s.warp)*uint64(sp.MemOpsPerWarp) + uint64(i)
	regionStart, regionLen := uint64(s.regionStart), uint64(s.regionLen)
	switch sp.Pattern {
	case PatStrided:
		return regionStart + (seq*sp.stride())%regionLen
	case PatComputeTile:
		return regionStart + seq%computeTile(regionLen)
	default:
		return regionStart + seq%regionLen
	}
}

func (s *Stream) remember(a uint32) {
	s.recent[s.op%int32(len(s.recent))] = a
	if s.nRecent < int32(len(s.recent)) {
		s.nRecent++
	}
}
