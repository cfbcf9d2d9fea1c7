// Package cta implements the CTA scheduling policies of Section 5.2: the
// baseline centralized scheduler, which hands consecutive CTA indices to
// whichever SM frees up first anywhere on the machine, and the distributed
// scheduler, which statically divides the CTA index space into contiguous
// chunks, one per module, so that neighboring CTAs — and therefore the data
// they share — stay within a GPM. Two extensions round the family out: a
// work-stealing variant of the distributed scheduler (the dynamic group
// sizing the paper leaves as future work, Section 5.4) and a tiled 2-D
// scheduler that maps super-tiles of a 2-D CTA grid to modules so that both
// row and column reuse neighbors stay local, which 1-D contiguous chunking
// cannot provide.
package cta

import (
	"fmt"

	"mcmgpu/internal/config"
)

// Scheduler dispenses CTA indices to modules. Implementations are not safe
// for concurrent use; the simulation is single threaded.
type Scheduler interface {
	// Next returns the next CTA index to launch on an SM of the given
	// module, or -1 if no CTA is available for it.
	Next(module int) int
	// Remaining returns the number of CTAs not yet handed out.
	Remaining() int
}

// Layout is implemented by schedulers that maintain a total CTA-to-module
// ownership map. Region-aware page placement and locality reporting both
// consult it, so Module must stay correct even as scheduling mutates
// internal state (e.g. work stealing).
type Layout interface {
	// Module returns the module that issued or will issue CTA i, or -1 if
	// i is out of range.
	Module(i int) int
}

// Grid describes the shape of a kernel's CTA index space. W and H give the
// 2-D grid dimensions for workloads with 2-D reuse structure (CTA i sits at
// x = i%W, y = i/W); both zero means a flat 1-D index space. RowPanelLines
// and ColPanelLines carry the sizes of the per-row and per-column reuse
// panels so the tiled scheduler can choose a super-tile aspect ratio that
// minimizes the distinct panel data each module must fetch.
type Grid struct {
	CTAs          int
	W, H          int
	RowPanelLines uint64
	ColPanelLines uint64
}

// normalize fills in the 1-D defaults and checks consistency.
func (g Grid) normalize() Grid {
	if g.W <= 0 || g.H <= 0 {
		g.W, g.H = g.CTAs, 1
	}
	if g.CTAs == 0 {
		g.CTAs = g.W * g.H
	}
	if g.CTAs <= 0 || g.W*g.H != g.CTAs {
		panic(fmt.Sprintf("cta: bad grid %dx%d for %d CTAs", g.W, g.H, g.CTAs))
	}
	return g
}

// New builds the scheduler selected by cfg for a kernel over the given CTA
// grid.
func New(cfg *config.Config, grid Grid) Scheduler {
	grid = grid.normalize()
	switch cfg.Scheduler {
	case config.SchedCentralized:
		return NewCentralized(grid.CTAs)
	case config.SchedDistributed, config.SchedDynamic:
		chunks := cfg.CTAChunksPerModule
		if chunks <= 0 {
			chunks = 1
		}
		d := NewDistributed(grid.CTAs, cfg.Modules, chunks)
		if cfg.Scheduler == config.SchedDynamic {
			return NewDynamic(d)
		}
		return d
	case config.SchedTiled2D:
		return NewTiled2D(grid, cfg.Modules)
	}
	panic(fmt.Sprintf("cta: unknown scheduler %v", cfg.Scheduler))
}

// Centralized is the baseline policy: one global cursor over the CTA index
// space. Because SMs from every module pull from the same cursor as they
// drain, consecutive CTAs land on different GPMs (Figure 8a).
type Centralized struct {
	next int
	n    int
}

// NewCentralized returns a centralized scheduler over numCTAs CTAs.
func NewCentralized(numCTAs int) *Centralized {
	if numCTAs <= 0 {
		panic(fmt.Sprintf("cta: numCTAs = %d", numCTAs))
	}
	return &Centralized{n: numCTAs}
}

// Next implements Scheduler; the module argument is ignored.
func (c *Centralized) Next(module int) int {
	if c.next >= c.n {
		return -1
	}
	i := c.next
	c.next++
	return i
}

// Remaining implements Scheduler.
func (c *Centralized) Remaining() int { return c.n - c.next }

// chunk is a contiguous CTA index range [start, end) owned by one module.
type chunk struct {
	start, end int
	module     int
}

// Distributed divides the CTA index space into modules*chunksPerModule
// contiguous chunks assigned round-robin to modules (chunksPerModule == 1
// reproduces the paper's equal split, Figure 8b). Each module draws only
// from its own chunks; when a module's share is exhausted its SMs idle,
// which reproduces the coarse-grain load imbalance the paper observes for
// irregular applications.
type Distributed struct {
	n      int
	layout []chunk // static chunk layout, in CTA index order
	// cursor[m] indexes into perModule[m]; next[m][k] is the next unissued
	// CTA of that module's k-th chunk.
	perModule [][]int // chunk indices owned by each module
	next      []int   // next CTA index within chunk i of layout
	left      int
}

// NewDistributed returns a distributed scheduler over numCTAs CTAs for the
// given module count and chunk granularity. Only the first
// min(numCTAs, modules*chunksPerModule) chunks are non-empty, chunk ci goes
// to module ci%modules, and every list is made at its final size, the
// module lists cut from one array, so a kernel launch costs five
// allocations however many chunks it splits into.
func NewDistributed(numCTAs, modules, chunksPerModule int) *Distributed {
	if numCTAs <= 0 || modules <= 0 || chunksPerModule <= 0 {
		panic(fmt.Sprintf("cta: bad distributed scheduler shape n=%d modules=%d chunks=%d",
			numCTAs, modules, chunksPerModule))
	}
	totalChunks := modules * chunksPerModule
	base := numCTAs / totalChunks
	rem := numCTAs % totalChunks
	chunks := min(numCTAs, totalChunks)
	d := &Distributed{
		n:         numCTAs,
		layout:    make([]chunk, chunks),
		next:      make([]int, chunks),
		perModule: make([][]int, modules),
		left:      numCTAs,
	}
	owned := make([]int, chunks)
	for m := range d.perModule {
		k := 0
		if m < chunks {
			k = (chunks - m + modules - 1) / modules
		}
		d.perModule[m], owned = owned[:0:k], owned[k:]
	}
	start := 0
	for ci := range d.layout {
		size := base
		if ci < rem {
			size++
		}
		m := ci % modules
		d.layout[ci] = chunk{start: start, end: start + size, module: m}
		d.next[ci] = start
		d.perModule[m] = append(d.perModule[m], ci)
		start += size
	}
	return d
}

// Next implements Scheduler.
func (d *Distributed) Next(module int) int {
	for _, ci := range d.perModule[module] {
		if d.next[ci] < d.layout[ci].end {
			i := d.next[ci]
			d.next[ci]++
			d.left--
			return i
		}
	}
	return -1
}

// Remaining implements Scheduler.
func (d *Distributed) Remaining() int { return d.left }

// Module implements Layout over the static chunk assignment.
func (d *Distributed) Module(i int) int {
	for _, c := range d.layout {
		if i >= c.start && i < c.end {
			return c.module
		}
	}
	return -1
}

// Dynamic wraps a Distributed scheduler with tail stealing: when a module's
// own chunks drain, it takes the trailing half of the remaining range of
// the module with the most CTAs left. Contiguity is preserved on both sides
// of the split — the victim keeps its head, the thief gets a contiguous
// tail — so the locality that distributed scheduling buys survives while
// the coarse-grain imbalance the paper observes (Section 5.4) shrinks.
type Dynamic struct {
	d *Distributed
	// stolen[m] holds ranges module m has acquired by stealing.
	stolen [][][2]int
	// owned logs every stolen range with its new owner. Steals shrink the
	// underlying layout (and earlier stolen ranges), so without this log
	// stolen CTA indices would fall in no chunk and Module would report -1
	// — or, for a range stolen twice, the first thief. Lookups scan
	// backward so the most recent steal wins.
	owned []chunk
}

// NewDynamic wraps an existing distributed layout with stealing.
func NewDynamic(d *Distributed) *Dynamic {
	return &Dynamic{d: d, stolen: make([][][2]int, len(d.perModule))}
}

// Next implements Scheduler.
func (y *Dynamic) Next(module int) int {
	if i := y.d.Next(module); i >= 0 {
		return i
	}
	// Drain previously stolen ranges.
	rs := y.stolen[module]
	for len(rs) > 0 {
		r := &rs[0]
		if r[0] < r[1] {
			i := r[0]
			r[0]++
			y.d.left--
			return i
		}
		rs = rs[1:]
		y.stolen[module] = rs
	}
	// Steal the tail half of the busiest remaining range. Ranges another
	// module has already stolen are candidates too: without them a module
	// that drains late would stall while work sits queued on other
	// modules' stolen lists.
	vi, vm, remain := -1, -1, 1 // require at least 2 remaining to split
	for ci := range y.d.layout {
		if r := y.d.layout[ci].end - y.d.next[ci]; r > remain {
			vi, vm, remain = ci, -1, r
		}
	}
	for m := range y.stolen {
		if m == module {
			continue
		}
		for ri := range y.stolen[m] {
			if r := y.stolen[m][ri][1] - y.stolen[m][ri][0]; r > remain {
				vi, vm, remain = ri, m, r
			}
		}
	}
	if vi < 0 {
		return -1
	}
	var start, end int
	if vm < 0 {
		mid := y.d.next[vi] + remain/2
		start, end = mid, y.d.layout[vi].end
		y.d.layout[vi].end = mid
	} else {
		r := &y.stolen[vm][vi]
		mid := r[0] + remain/2
		start, end = mid, r[1]
		r[1] = mid
	}
	y.owned = append(y.owned, chunk{start: start, end: end, module: module})
	y.stolen[module] = append(y.stolen[module], [2]int{start + 1, end})
	y.d.left--
	return start
}

// Remaining implements Scheduler.
func (y *Dynamic) Remaining() int { return y.d.Remaining() }

// Module implements Layout: the most recent steal covering i wins,
// otherwise the static layout's owner stands.
func (y *Dynamic) Module(i int) int {
	for k := len(y.owned) - 1; k >= 0; k-- {
		if c := y.owned[k]; i >= c.start && i < c.end {
			return c.module
		}
	}
	return y.d.Module(i)
}

// Tiled2D statically maps 2-D super-tiles of the CTA grid to modules. The
// module count is factored into an mw x mh super-tile grid chosen to
// minimize the distinct panel lines each module must fetch — the
// communication-minimizing partition for tiled GEMM — so a CTA's row
// neighbors (i±1, j) and column neighbors (i, j±1) both stay on its GPM at
// super-tile scale. On a 1-D grid (or one with no panel structure) the
// factorization degenerates to contiguous chunks along the wider axis,
// matching the distributed scheduler.
type Tiled2D struct {
	w, h   int
	mw, mh int
	cur    []int // per-module linear cursor within its super-tile
	left   int
}

// NewTiled2D returns a tiled scheduler over the grid for the given module
// count.
func NewTiled2D(g Grid, modules int) *Tiled2D {
	g = g.normalize()
	if modules <= 0 {
		panic(fmt.Sprintf("cta: modules = %d", modules))
	}
	mw, mh := tileFactor(g, modules)
	return &Tiled2D{w: g.W, h: g.H, mw: mw, mh: mh, cur: make([]int, modules), left: g.CTAs}
}

// TileFactor returns the super-tile factorization (mw, mh) a tiled
// scheduler over the grid uses: the analytic estimator mirrors it so both
// models split panels identically.
func TileFactor(g Grid, modules int) (mw, mh int) {
	return tileFactor(g.normalize(), modules)
}

// tileFactor picks the divisor pair (mw, mh) with mw*mh == modules that
// minimizes the distinct panel lines one super-tile touches:
// (H/mh)*RowPanelLines + (W/mw)*ColPanelLines. With no panels every pair
// ties and the wider axis is split, reproducing 1-D contiguous chunking.
func tileFactor(g Grid, modules int) (mw, mh int) {
	mw, mh = modules, 1
	if g.H > g.W {
		mw, mh = 1, modules
	}
	best := tileCost(g, mw, mh)
	for h := 1; h <= modules; h++ {
		if modules%h != 0 {
			continue
		}
		w := modules / h
		if c := tileCost(g, w, h); c < best {
			mw, mh, best = w, h, c
		}
	}
	return mw, mh
}

func tileCost(g Grid, mw, mh int) float64 {
	return float64(g.H)/float64(mh)*float64(g.RowPanelLines) +
		float64(g.W)/float64(mw)*float64(g.ColPanelLines)
}

// bounds returns module m's super-tile [x0,x1) x [y0,y1).
func (t *Tiled2D) bounds(m int) (x0, x1, y0, y1 int) {
	sc, sr := m%t.mw, m/t.mw
	return sc * t.w / t.mw, (sc + 1) * t.w / t.mw,
		sr * t.h / t.mh, (sr + 1) * t.h / t.mh
}

// Next implements Scheduler: each module walks its own super-tile in
// row-major order and idles when it drains, like Distributed.
func (t *Tiled2D) Next(module int) int {
	x0, x1, y0, y1 := t.bounds(module)
	tw := x1 - x0
	if c := t.cur[module]; tw > 0 && c < tw*(y1-y0) {
		t.cur[module]++
		t.left--
		return (y0+c/tw)*t.w + x0 + c%tw
	}
	return -1
}

// Remaining implements Scheduler.
func (t *Tiled2D) Remaining() int { return t.left }

// Module implements Layout.
func (t *Tiled2D) Module(i int) int {
	if i < 0 || i >= t.w*t.h {
		return -1
	}
	x, y := i%t.w, i/t.w
	for m := range t.cur {
		x0, x1, y0, y1 := t.bounds(m)
		if x >= x0 && x < x1 && y >= y0 && y < y1 {
			return m
		}
	}
	return -1
}
