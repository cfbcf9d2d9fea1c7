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
	cw, ccw []engine.Resource

	// Crossbar links: xbar[src*nodes+dst]. The diagonal is unused.
	xbar []engine.Resource

	// Mesh geometry and links. Node i sits at (i%meshW, i/meshW); east[i]
	// goes to i+1, west[i] to i-1, south[i] to i+meshW, north[i] to
	// i-meshW. Routing is dimension ordered (X then Y). A node on the
	// grid's edge leaves the entry for the link it lacks unused.
	meshW, meshH             int
	east, west, north, south []engine.Resource

	// links lists every link with its source module, in Links' order.
	links []Link

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
		n.links = make([]Link, 0, 2*n.nodes)
		n.cw = n.group("ring-cw-%d", perDir, nil)
		if cfg.Modules > 2 {
			n.ccw = n.group("ring-ccw-%d", perDir, nil)
		}
	case config.TopoCrossbar:
		// Iso-attachment-bandwidth ablation: each module's aggregate
		// ingress matches the ring's (Link.GBps), spread over its
		// (Modules-1) incoming pair links.
		perPair := cfg.Link.GBps / float64(cfg.Modules-1)
		n.links = make([]Link, 0, n.nodes*(n.nodes-1))
		n.xbar = make([]engine.Resource, n.nodes*n.nodes)
		for i := 0; i < n.nodes; i++ {
			for j := 0; j < n.nodes; j++ {
				if i != j {
					n.addLink(&n.xbar[i*n.nodes+j], fmt.Sprintf("xbar-%d-%d", i, j), -1, i, perPair)
				}
			}
		}
	case config.TopoMesh:
		// Mesh links carry Link.GBps split between the two directions of a
		// physical channel, like the ring.
		perDir := cfg.Link.GBps / 2
		w, h := meshDims(cfg.Modules)
		n.meshW, n.meshH = w, h
		n.links = make([]Link, 0, 4*n.nodes)
		n.east = n.group("mesh-e-%d", perDir, func(i int) bool { return i%w+1 < w })
		n.west = n.group("mesh-w-%d", perDir, func(i int) bool { return i%w > 0 })
		n.north = n.group("mesh-n-%d", perDir, func(i int) bool { return i/w > 0 })
		n.south = n.group("mesh-s-%d", perDir, func(i int) bool { return i/w+1 < h })
	default:
		panic(fmt.Sprintf("noc: unsupported topology %v", cfg.Topology))
	}
	return n
}

// group builds one directional link group: link i egresses node i, is
// named format with i, and exists where has(i) holds, or everywhere when
// has is nil.
func (n *Network) group(format string, gbps float64, has func(i int) bool) []engine.Resource {
	g := make([]engine.Resource, n.nodes)
	for i := range g {
		if has == nil || has(i) {
			n.addLink(&g[i], format, i, i, gbps)
		}
	}
	return g
}

// addLink initializes l as a unidirectional link egressing node gpm, named
// as engine.Resource.Init names it from format and idx, lists it and
// accounts its bandwidth toward the network's aggregate capacity.
func (n *Network) addLink(l *engine.Resource, format string, idx, gpm int, gbps float64) {
	l.Init(format, idx, gbps)
	n.links = append(n.links, Link{GPM: gpm, Res: l})
	n.aggGBps += gbps
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
				link = &n.cw[node]
				node = (node + 1) % n.nodes
			} else {
				link = &n.ccw[node]
				node = (node - 1 + n.nodes) % n.nodes
			}
			t = link.Reserve(t, bytes) + n.hopLat
			n.totalBytes += bytes
		}
	case config.TopoCrossbar:
		t = n.xbar[src*n.nodes+dst].Reserve(t, bytes) + n.hopLat
		n.totalBytes += bytes
	case config.TopoMesh:
		// Dimension-ordered routing: X first, then Y.
		node := src
		dx := dst%n.meshW - src%n.meshW
		for dx != 0 {
			var link *engine.Resource
			if dx > 0 {
				link = &n.east[node]
				node++
				dx--
			} else {
				link = &n.west[node]
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
				link = &n.south[node]
				node += n.meshW
				dy--
			} else {
				link = &n.north[node]
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

// Link is one unidirectional link resource together with the module it
// egresses from, for per-GPM attribution in the metrics sampler.
type Link struct {
	GPM int
	Res *engine.Resource
}

// Links returns every link with its source module, in a deterministic order
// (ring cw/ccw, mesh east/west/north/south, then crossbar rows). Link i of a
// directional group egresses node i; crossbar link [i][j] egresses node i.
// The slice is the network's own, so callers must not modify it.
func (n *Network) Links() []Link { return n.links }

// Audit checks byte conservation into r: the network-wide totalBytes counter
// (the quantity behind the paper's inter-GPM bandwidth figures) must equal
// the sum of per-link reservation units, since Send increments both for
// every link a message traverses. A mismatch means bytes were double-booked
// on a link or dropped from the total — exactly the silent skew that would
// corrupt Figures 7, 10 and 14.
func (n *Network) Audit(r *audit.Reporter) {
	var sum uint64
	for _, l := range n.links {
		sum += l.Res.Units()
	}
	audit.Equal(r, "noc-bytes", "noc", "sum of per-link reserved bytes", sum, n.totalBytes)
}

// MaxLinkUtilization returns the utilization of the busiest link over the
// elapsed interval.
func (n *Network) MaxLinkUtilization(elapsed engine.Cycle) float64 {
	var max float64
	for _, l := range n.links {
		if u := l.Res.Utilization(elapsed); u > max {
			max = u
		}
	}
	return max
}
