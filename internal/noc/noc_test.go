package noc

import (
	"testing"
	"testing/quick"

	"mcmgpu/internal/config"
	"mcmgpu/internal/engine"
)

func ringNet() *Network {
	return New(config.BaselineMCM()) // 4-node ring, 768 GB/s, 32 cyc/hop
}

func TestHopsRing(t *testing.T) {
	n := ringNet()
	cases := []struct{ src, dst, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 1},
		{1, 0, 1}, {2, 0, 2}, {3, 1, 2}, {3, 2, 1},
	}
	for _, c := range cases {
		if got := n.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestSendLatencySingleHop(t *testing.T) {
	n := ringNet()
	// A 768 GB/s link carries 384 B/cycle per direction: 768 bytes take
	// 2 cycles of serialization + 32 cycles of hop latency.
	arrive := n.Send(0, 0, 1, 768)
	if arrive != 34 {
		t.Fatalf("arrival = %d, want 34", arrive)
	}
	if n.TotalBytes() != 768 {
		t.Fatalf("TotalBytes = %d, want 768", n.TotalBytes())
	}
}

func TestSendTwoHopsCountsWireBytesTwice(t *testing.T) {
	n := ringNet()
	arrive := n.Send(0, 0, 2, 768)
	// Two hops: 2 x (2 cycles transfer + 32 cycles hop latency).
	if arrive != 68 {
		t.Fatalf("arrival = %d, want 68", arrive)
	}
	if n.TotalBytes() != 2*768 {
		t.Fatalf("TotalBytes = %d, want %d (a byte per traversed link)", n.TotalBytes(), 2*768)
	}
}

func TestRingContention(t *testing.T) {
	n := ringNet()
	a := n.Send(0, 0, 1, 7680) // 20 cycles on link cw-0 at 384 B/cycle
	b := n.Send(0, 0, 1, 7680) // queued behind it
	if a != 52 {
		t.Fatalf("first arrival = %d, want 52", a)
	}
	if b != 72 {
		t.Fatalf("queued arrival = %d, want 72", b)
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	n := ringNet()
	a := n.Send(0, 0, 1, 7680) // cw from 0
	b := n.Send(0, 0, 3, 7680) // ccw from 0
	if a != b {
		t.Fatalf("cw and ccw sends interfered: %d vs %d", a, b)
	}
}

func TestTwoNodeRingSingleLinkPair(t *testing.T) {
	n := New(config.MultiGPUBaseline()) // 2 GPUs, 128 GB/s per direction
	if got := n.Hops(0, 1); got != 1 {
		t.Fatalf("Hops(0,1) = %d, want 1", got)
	}
	// Both directions exist and are independent.
	a := n.Send(0, 0, 1, 1280) // 10 cycles at 128 B/cyc (256 GB/s aggregate)
	b := n.Send(0, 1, 0, 1280)
	if a != b {
		t.Fatalf("directions contend on a 2-node ring: %d vs %d", a, b)
	}
	// Same direction serializes.
	c := n.Send(0, 0, 1, 1280)
	if c <= a {
		t.Fatalf("same-direction messages did not queue: %d then %d", a, c)
	}
	// Exactly 2 links exist.
	if got := len(n.Links()); got != 2 {
		t.Fatalf("2-node ring has %d links, want 2", got)
	}
}

func TestCrossbar(t *testing.T) {
	cfg := config.BaselineMCM()
	cfg.Topology = config.TopoCrossbar
	n := New(cfg)
	if got := n.Hops(0, 2); got != 1 {
		t.Fatalf("crossbar Hops(0,2) = %d, want 1", got)
	}
	// Pair links carry GBps/(modules-1) = 256 B/cycle: 3 cycles + hop.
	a := n.Send(0, 0, 2, 768)
	if a != 35 {
		t.Fatalf("crossbar arrival = %d, want 35", a)
	}
	// Distinct pairs do not contend.
	b := n.Send(0, 1, 3, 768)
	if b != 35 {
		t.Fatalf("independent crossbar pair queued: %d", b)
	}
}

func TestSingleModulePanics(t *testing.T) {
	n := New(config.MustMonolithic(128))
	defer func() {
		if recover() == nil {
			t.Fatalf("Send on single-module network did not panic")
		}
	}()
	n.Send(0, 0, 0, 128)
}

func TestSelfSendPanics(t *testing.T) {
	n := ringNet()
	defer func() {
		if recover() == nil {
			t.Fatalf("self-send did not panic")
		}
	}()
	n.Send(0, 1, 1, 128)
}

func TestMaxLinkUtilization(t *testing.T) {
	n := ringNet()
	n.Send(0, 0, 1, 38400) // 100 cycles on one 384 B/cycle link
	if u := n.MaxLinkUtilization(200); u < 0.49 || u > 0.51 {
		t.Fatalf("MaxLinkUtilization = %v, want ~0.5", u)
	}
}

// Property: arrival time always >= send time + hops*hopLatency, and hop
// counts are symmetric on the 4-node ring.
func TestSendLatencyLowerBoundProperty(t *testing.T) {
	f := func(src, dst uint8, sz uint16) bool {
		n := ringNet()
		s, d := int(src%4), int(dst%4)
		if s == d {
			return n.Hops(s, d) == 0
		}
		if n.Hops(s, d) != n.Hops(d, s) {
			return false
		}
		now := engine.Cycle(100)
		arrive := n.Send(now, s, d, uint64(sz)+1)
		minLat := engine.Cycle(n.Hops(s, d)) * 32
		return arrive >= now+minLat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func meshNet(modules int) *Network {
	cfg := config.BaselineMCM()
	cfg.Modules = modules
	cfg.Topology = config.TopoMesh
	return New(cfg)
}

func TestMeshDims(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{4, 2, 2}, {8, 4, 2}, {16, 4, 4}, {6, 3, 2}, {2, 2, 1},
	}
	for _, c := range cases {
		w, h := meshDims(c.n)
		if w != c.w || h != c.h {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

func TestMeshHops(t *testing.T) {
	n := meshNet(8) // 4x2
	cases := []struct{ src, dst, want int }{
		{0, 1, 1}, {0, 3, 3}, {0, 4, 1}, {0, 7, 4}, {3, 4, 4}, {5, 6, 1},
	}
	for _, c := range cases {
		if got := n.Hops(c.src, c.dst); got != c.want {
			t.Errorf("mesh Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestMeshSendXYRouting(t *testing.T) {
	n := meshNet(8) // 4x2: node 0 at (0,0), node 7 at (3,1)
	// 768 bytes at 384 B/cyc per hop = 2 cycles + 32 hop latency, 4 hops.
	arrive := n.Send(0, 0, 7, 768)
	if arrive != 4*(2+32) {
		t.Fatalf("mesh arrival = %d, want %d", arrive, 4*(2+32))
	}
	if n.TotalBytes() != 4*768 {
		t.Fatalf("TotalBytes = %d, want %d", n.TotalBytes(), 4*768)
	}
}

func TestMeshSendDisjointPathsDoNotContend(t *testing.T) {
	n := meshNet(8)
	a := n.Send(0, 0, 1, 768) // east link of 0
	b := n.Send(0, 5, 6, 768) // east link of 5
	if a != b {
		t.Fatalf("disjoint mesh paths interfered: %d vs %d", a, b)
	}
	// Same link serializes.
	c := n.Send(0, 0, 1, 768)
	if c <= a {
		t.Fatalf("same mesh link did not queue")
	}
}

// Property: mesh arrival time >= hops * hopLatency and routing stays inside
// the grid for all pairs.
func TestMeshSendProperty(t *testing.T) {
	f := func(src, dst uint8) bool {
		n := meshNet(16)
		s, d := int(src%16), int(dst%16)
		if s == d {
			return n.Hops(s, d) == 0
		}
		arrive := n.Send(100, s, d, 128)
		return arrive >= engine.Cycle(100+32*n.Hops(s, d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
