// Package noc models the inter-module interconnect: the on-package ring of
// GPM-Xbars from Section 3.2 of the paper (GRS links, 768 GB/s per link and
// 32 cycles per hop in the baseline), an optional fully connected crossbar
// used for topology ablations, and the two-node case that degenerates to a
// single bidirectional board-level link for the multi-GPU system.
//
// Every unidirectional link is an engine.Resource, so link contention and
// queuing delays under bandwidth pressure are modeled, and per-link byte
// counters provide the inter-GPM bandwidth numbers reported in Figures 7,
// 10 and 14.
package noc

import (
	"fmt"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/config"
	"mcmgpu/internal/engine"
)

// Network is the inter-module interconnect. A Network with a single node
// has no links; Send panics if called on it.
type Network struct {
	topo   config.TopologyKind
	nodes  int
	hopLat engine.Cycle

	// Ring links: cw[i] goes from node i to node (i+1)%n, ccw[i] from node i
	// to node (i-1+n)%n. A two-node ring keeps only cw links (one per
	// direction between the pair) so aggregate bandwidth is 2 links, not 4.
	cw, ccw []*engine.Resource

	// Crossbar links indexed [src][dst].
	xbar [][]*engine.Resource

	// Mesh geometry and links. Node i sits at (i%meshW, i/meshW); east[i]
	// goes to i+1, west[i] to i-1, south[i] to i+meshW, north[i] to
	// i-meshW. Routing is dimension ordered (X then Y).
	meshW, meshH             int
	east, west, north, south []*engine.Resource

	// aggGBps accumulates the bandwidth of every unidirectional link as it
	// is built, so the analytic estimator's link roofline (wire bytes over
	// aggregate link capacity) derives from the same construction as the
	// simulated links instead of re-deriving per-topology link counts.
	aggGBps float64

	totalBytes uint64
}

// meshDims picks the most square w x h factorization of n with w >= h.
func meshDims(n int) (w, h int) {
	h = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			h = d
		}
	}
	return n / h, h
}

// New builds the network described by cfg. Link bandwidth is cfg.Link.GBps
// per unidirectional link; at the model's 1 GHz clock that is bytes/cycle.
func New(cfg *config.Config) *Network {
	n := &Network{
		topo:   cfg.Topology,
		nodes:  cfg.Modules,
		hopLat: engine.Cycle(cfg.Link.HopLatency),
	}
	if cfg.Modules <= 1 || cfg.Topology == config.TopoNone {
		n.topo = config.TopoNone
		return n
	}
	switch cfg.Topology {
	case config.TopoRing:
		// Link.GBps is the paper's per-link figure (Table 3: 768 GB/s per
		// link): the total bandwidth of one GPM-to-GPM physical link, split
		// equally between its two directions. Each module attaches to two
		// physical links, so its aggregate remote ingress (and egress)
		// capacity equals Link.GBps — exactly the sizing rule of the
		// paper's Section 3.3.1 analysis, where a "4b" (3 TB/s) link is
		// needed to deliver the full 4b of aggregate DRAM bandwidth.
		perDir := cfg.Link.GBps / 2
		n.cw = make([]*engine.Resource, cfg.Modules)
		for i := range n.cw {
			n.cw[i] = n.newLink(fmt.Sprintf("ring-cw-%d", i), perDir)
		}
		if cfg.Modules > 2 {
			n.ccw = make([]*engine.Resource, cfg.Modules)
			for i := range n.ccw {
				n.ccw[i] = n.newLink(fmt.Sprintf("ring-ccw-%d", i), perDir)
			}
		}
	case config.TopoCrossbar:
		// Iso-attachment-bandwidth ablation: each module's aggregate
		// ingress matches the ring's (Link.GBps), spread over its
		// (Modules-1) incoming pair links.
		perPair := cfg.Link.GBps / float64(cfg.Modules-1)
		n.xbar = make([][]*engine.Resource, cfg.Modules)
		for i := range n.xbar {
			n.xbar[i] = make([]*engine.Resource, cfg.Modules)
			for j := range n.xbar[i] {
				if i != j {
					n.xbar[i][j] = n.newLink(fmt.Sprintf("xbar-%d-%d", i, j), perPair)
				}
			}
		}
	case config.TopoMesh:
		// Mesh links carry Link.GBps split between the two directions of a
		// physical channel, like the ring.
		perDir := cfg.Link.GBps / 2
		w, h := meshDims(cfg.Modules)
		n.meshW, n.meshH = w, h
		n.east = make([]*engine.Resource, cfg.Modules)
		n.west = make([]*engine.Resource, cfg.Modules)
		n.north = make([]*engine.Resource, cfg.Modules)
		n.south = make([]*engine.Resource, cfg.Modules)
		for i := 0; i < cfg.Modules; i++ {
			x, y := i%w, i/w
			if x+1 < w {
				n.east[i] = n.newLink(fmt.Sprintf("mesh-e-%d", i), perDir)
				n.west[i+1] = n.newLink(fmt.Sprintf("mesh-w-%d", i+1), perDir)
			}
			if y+1 < h {
				n.south[i] = n.newLink(fmt.Sprintf("mesh-s-%d", i), perDir)
				n.north[i+w] = n.newLink(fmt.Sprintf("mesh-n-%d", i+w), perDir)
			}
		}
	default:
		panic(fmt.Sprintf("noc: unsupported topology %v", cfg.Topology))
	}
	return n
}

// newLink builds one unidirectional link resource and accounts its
// bandwidth toward the network's aggregate capacity.
func (n *Network) newLink(name string, gbps float64) *engine.Resource {
	n.aggGBps += gbps
	return engine.NewResource(name, gbps)
}

// AggregateGBps returns the summed bandwidth of every unidirectional link
// (bytes/cycle at 1 GHz). Dividing total wire bytes (TotalBytes' quantity,
// which counts a byte once per link traversed) by this is the network-wide
// bandwidth roofline the analytic estimator uses: it automatically accounts
// for multi-hop messages consuming capacity on every intermediate link.
func (n *Network) AggregateGBps() float64 { return n.aggGBps }

// MeanHops returns the mean link count of a message between two distinct
// uniformly chosen modules, following the same min-hop routes Send takes.
// Single-module networks return 0.
func (n *Network) MeanHops() float64 {
	if n.nodes <= 1 || n.topo == config.TopoNone {
		return 0
	}
	var sum, pairs float64
	for s := 0; s < n.nodes; s++ {
		for d := 0; d < n.nodes; d++ {
			if s == d {
				continue
			}
			sum += float64(n.Hops(s, d))
			pairs++
		}
	}
	return sum / pairs
}

// Hops returns the number of links a message from src to dst traverses.
func (n *Network) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	switch n.topo {
	case config.TopoRing:
		d := dst - src
		if d < 0 {
			d += n.nodes
		}
		if rev := n.nodes - d; n.ccw != nil && rev < d {
			return rev
		}
		return d
	case config.TopoCrossbar:
		return 1
	case config.TopoMesh:
		sx, sy := src%n.meshW, src/n.meshW
		dx, dy := dst%n.meshW, dst/n.meshW
		return abs(dx-sx) + abs(dy-sy)
	}
	return 0
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Send transfers a message of the given size from src to dst, reserving
// bandwidth on every traversed link and paying the per-hop latency, and
// returns the arrival time. Messages between a node and itself are an error
// in the caller.
func (n *Network) Send(now engine.Cycle, src, dst int, bytes uint64) engine.Cycle {
	if src == dst {
		panic(fmt.Sprintf("noc: Send from node %d to itself", src))
	}
	if n.topo == config.TopoNone {
		panic("noc: Send on a single-module machine")
	}
	t := now
	switch n.topo {
	case config.TopoRing:
		d := dst - src
		if d < 0 {
			d += n.nodes
		}
		useCW := true
		if n.ccw != nil {
			rev := n.nodes - d
			// Min-hop routing; equal-distance ties alternate by source
			// parity so opposing flows balance across both directions.
			if rev < d || (rev == d && src&1 == 1) {
				useCW = false
				d = rev
			}
		}
		node := src
		for h := 0; h < d; h++ {
			var link *engine.Resource
			if useCW {
				link = n.cw[node]
				node = (node + 1) % n.nodes
			} else {
				link = n.ccw[node]
				node = (node - 1 + n.nodes) % n.nodes
			}
			t = link.Reserve(t, bytes) + n.hopLat
			n.totalBytes += bytes
		}
	case config.TopoCrossbar:
		t = n.xbar[src][dst].Reserve(t, bytes) + n.hopLat
		n.totalBytes += bytes
	case config.TopoMesh:
		// Dimension-ordered routing: X first, then Y.
		node := src
		dx := dst%n.meshW - src%n.meshW
		for dx != 0 {
			var link *engine.Resource
			if dx > 0 {
				link = n.east[node]
				node++
				dx--
			} else {
				link = n.west[node]
				node--
				dx++
			}
			t = link.Reserve(t, bytes) + n.hopLat
			n.totalBytes += bytes
		}
		dy := dst/n.meshW - node/n.meshW
		for dy != 0 {
			var link *engine.Resource
			if dy > 0 {
				link = n.south[node]
				node += n.meshW
				dy--
			} else {
				link = n.north[node]
				node -= n.meshW
				dy++
			}
			t = link.Reserve(t, bytes) + n.hopLat
			n.totalBytes += bytes
		}
	}
	return t
}

// TotalBytes returns the total bytes carried over inter-module links,
// counting a byte once per link traversed (i.e. wire bytes, the quantity
// behind the paper's inter-GPM bandwidth figures).
func (n *Network) TotalBytes() uint64 { return n.totalBytes }

// links returns all non-nil link resources.
func (n *Network) links() []*engine.Resource {
	var out []*engine.Resource
	for _, group := range [][]*engine.Resource{n.cw, n.ccw, n.east, n.west, n.north, n.south} {
		for _, l := range group {
			if l != nil {
				out = append(out, l)
			}
		}
	}
	for _, row := range n.xbar {
		for _, l := range row {
			if l != nil {
				out = append(out, l)
			}
		}
	}
	return out
}

// Link is one unidirectional link resource together with the module it
// egresses from, for per-GPM attribution in the metrics sampler.
type Link struct {
	GPM int
	Res *engine.Resource
}

// Links returns every link with its source module, in a deterministic order
// (ring cw/ccw, mesh east/west/north/south, then crossbar rows). Link i of a
// directional group egresses node i; crossbar link [i][j] egresses node i.
func (n *Network) Links() []Link {
	var out []Link
	for _, group := range [][]*engine.Resource{n.cw, n.ccw, n.east, n.west, n.north, n.south} {
		for i, l := range group {
			if l != nil {
				out = append(out, Link{GPM: i, Res: l})
			}
		}
	}
	for i, row := range n.xbar {
		for _, l := range row {
			if l != nil {
				out = append(out, Link{GPM: i, Res: l})
			}
		}
	}
	return out
}

// Audit checks byte conservation into r: the network-wide totalBytes counter
// (the quantity behind the paper's inter-GPM bandwidth figures) must equal
// the sum of per-link reservation units, since Send increments both for
// every link a message traverses. A mismatch means bytes were double-booked
// on a link or dropped from the total — exactly the silent skew that would
// corrupt Figures 7, 10 and 14.
func (n *Network) Audit(r *audit.Reporter) {
	var sum uint64
	for _, l := range n.links() {
		sum += l.Units()
	}
	audit.Equal(r, "noc-bytes", "noc", "sum of per-link reserved bytes", sum, n.totalBytes)
}

// MaxLinkUtilization returns the utilization of the busiest link over the
// elapsed interval.
func (n *Network) MaxLinkUtilization(elapsed engine.Cycle) float64 {
	var max float64
	for _, l := range n.links() {
		if u := l.Utilization(elapsed); u > max {
			max = u
		}
	}
	return max
}
