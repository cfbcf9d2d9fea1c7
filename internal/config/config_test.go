package config

import (
	"math"
	"strings"
	"testing"
)

func TestBaselineMatchesTable3(t *testing.T) {
	c := BaselineMCM()
	if err := c.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	if got := c.TotalSMs(); got != 256 {
		t.Errorf("TotalSMs = %d, want 256", got)
	}
	if got := c.Modules; got != 4 {
		t.Errorf("Modules = %d, want 4", got)
	}
	if got := c.WarpsPerSM; got != 64 {
		t.Errorf("WarpsPerSM = %d, want 64", got)
	}
	if got := c.L1.SizeBytes; got != 128*KB {
		t.Errorf("L1 size = %d, want 128KB", got)
	}
	if got := c.TotalL2Bytes(); got != 16*MB {
		t.Errorf("total L2 = %d, want 16MB", got)
	}
	if got := c.TotalDRAMGBps(); got != 3072 {
		t.Errorf("total DRAM BW = %v GB/s, want 3072 (3 TB/s)", got)
	}
	if got := c.Link.GBps; got != 768 {
		t.Errorf("link BW = %v, want 768", got)
	}
	if got := c.Link.HopLatency; got != 32 {
		t.Errorf("hop latency = %d, want 32", got)
	}
	if got := c.DRAMLatency; got != 100 {
		t.Errorf("DRAM latency = %d, want 100 cycles (100 ns)", got)
	}
	if c.L15.Enabled() {
		t.Errorf("baseline must not have an L1.5")
	}
	if c.Scheduler != SchedCentralized || c.Placement != PlaceInterleave {
		t.Errorf("baseline policies = %v/%v, want centralized/interleave", c.Scheduler, c.Placement)
	}
}

func TestWithL15IsoTransistor(t *testing.T) {
	base := BaselineMCM()
	for _, tc := range []struct {
		totalL15  int
		wantL15PM int // per module
		wantL2PP  int // per partition
	}{
		{8 * MB, 2 * MB, 2 * MB},
		{16 * MB, 4 * MB, 32 * KB},
		{32 * MB, 8 * MB, 32 * KB},
	} {
		c := WithL15(base, tc.totalL15, AllocRemoteOnly)
		if err := c.Validate(); err != nil {
			t.Fatalf("L1.5 %dMB invalid: %v", tc.totalL15/MB, err)
		}
		if c.L15.SizeBytes != tc.wantL15PM {
			t.Errorf("L1.5 total %dMB: per-module = %d, want %d", tc.totalL15/MB, c.L15.SizeBytes, tc.wantL15PM)
		}
		if c.L2.SizeBytes != tc.wantL2PP {
			t.Errorf("L1.5 total %dMB: L2 per-partition = %d, want %d", tc.totalL15/MB, c.L2.SizeBytes, tc.wantL2PP)
		}
		if c.L15Alloc != AllocRemoteOnly {
			t.Errorf("alloc policy not preserved")
		}
	}
	// The 8+8 split is iso-transistor with the 16 MB baseline budget.
	c := WithL15(base, 8*MB, AllocRemoteOnly)
	if got := c.TotalL15Bytes() + c.TotalL2Bytes(); got != 16*MB {
		t.Errorf("8MB split total cache = %d, want 16MB", got)
	}
	// Base config must not be mutated.
	if base.L15.Enabled() {
		t.Errorf("WithL15 mutated its input")
	}
}

func TestOptimizedMCM(t *testing.T) {
	c := OptimizedMCM()
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if c.Scheduler != SchedDistributed {
		t.Errorf("scheduler = %v, want distributed", c.Scheduler)
	}
	if c.Placement != PlaceFirstTouch {
		t.Errorf("placement = %v, want first-touch", c.Placement)
	}
	if c.L15Alloc != AllocRemoteOnly || !c.L15.Enabled() {
		t.Errorf("optimized MCM must have a remote-only L1.5")
	}
	if got := c.TotalL15Bytes(); got != 8*MB {
		t.Errorf("total L1.5 = %d, want 8MB", got)
	}
}

func TestMonolithicScaling(t *testing.T) {
	for _, sms := range []int{32, 64, 96, 128, 160, 192, 224, 256} {
		c, err := Monolithic(sms)
		if err != nil {
			t.Fatalf("Monolithic(%d): %v", sms, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("monolithic %d invalid: %v", sms, err)
		}
		if got := c.TotalSMs(); got != sms {
			t.Errorf("%d SMs: TotalSMs = %d", sms, got)
		}
		wantBW := float64(sms/32) * 384
		if got := c.TotalDRAMGBps(); got != wantBW {
			t.Errorf("%d SMs: DRAM BW = %v, want %v", sms, got, wantBW)
		}
		wantL2 := (sms / 32) * 2 * MB
		if got := c.TotalL2Bytes(); got != wantL2 {
			t.Errorf("%d SMs: L2 = %d, want %d", sms, got, wantL2)
		}
		if c.Topology != TopoNone || c.Modules != 1 {
			t.Errorf("%d SMs: monolithic must be a single module with no network", sms)
		}
	}
	// 256-SM monolithic has the same memory system as the MCM (3 TB/s, 16 MB).
	m := UnbuildableMonolithic()
	b := BaselineMCM()
	if m.TotalDRAMGBps() != b.TotalDRAMGBps() {
		t.Errorf("256-SM monolithic BW %v != MCM BW %v", m.TotalDRAMGBps(), b.TotalDRAMGBps())
	}
	if m.TotalL2Bytes() != b.TotalL2Bytes() {
		t.Errorf("256-SM monolithic L2 %v != MCM L2 %v", m.TotalL2Bytes(), b.TotalL2Bytes())
	}
}

func TestMonolithicRejectsNonMultiple(t *testing.T) {
	for _, sms := range []int{100, 0, -32, 33} {
		if c, err := Monolithic(sms); err == nil {
			t.Errorf("Monolithic(%d) = %v, want error", sms, c)
		}
	}
}

func TestMustMonolithicPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustMonolithic(100) did not panic")
		}
	}()
	MustMonolithic(100)
}

func TestMultiGPU(t *testing.T) {
	b := MultiGPUBaseline()
	if err := b.Validate(); err != nil {
		t.Fatalf("baseline multi-GPU invalid: %v", err)
	}
	if b.TotalSMs() != 256 {
		t.Errorf("TotalSMs = %d, want 256", b.TotalSMs())
	}
	if got := b.TotalDRAMGBps(); got != 3072 {
		t.Errorf("total DRAM = %v, want 3072 (equally equipped)", got)
	}
	if b.L15.Enabled() {
		t.Errorf("baseline multi-GPU must not have a remote cache")
	}
	o := MultiGPUOptimized()
	if err := o.Validate(); err != nil {
		t.Fatalf("optimized multi-GPU invalid: %v", err)
	}
	if !o.L15.Enabled() || o.L15Alloc != AllocRemoteOnly {
		t.Errorf("optimized multi-GPU needs a remote-only cache")
	}
	// Half the L2 moved: 4 MB remote cache + 4 MB L2 per GPU.
	if got := o.L15.SizeBytes; got != 4*MB {
		t.Errorf("remote cache per GPU = %d, want 4MB", got)
	}
	if got := o.PartitionsPerModule * o.L2.SizeBytes; got != 4*MB {
		t.Errorf("L2 per GPU = %d, want 4MB", got)
	}
	// Board link is far slower than the on-package link.
	if b.Link.GBps >= BaselineMCM().Link.GBps {
		t.Errorf("board link %v GB/s should be below package link", b.Link.GBps)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Modules = 0 }, "Modules"},
		{func(c *Config) { c.SMsPerModule = -1 }, "SMsPerModule"},
		{func(c *Config) { c.WarpsPerSM = 0 }, "WarpsPerSM"},
		{func(c *Config) { c.IssuePerSM = 0 }, "IssuePerSM"},
		{func(c *Config) { c.DRAMGBps = 0 }, "DRAMGBps"},
		{func(c *Config) { c.Topology = TopoNone }, "topology"},
		{func(c *Config) { c.Link.GBps = 0 }, "Link.GBps"},
		{func(c *Config) { c.L1.Ways = 0 }, "Ways"},
		{func(c *Config) { c.L1.SizeBytes = 96 * KB }, "power of two"},
		{func(c *Config) { c.PageBytes = 3000 }, "PageBytes"},
		{func(c *Config) { c.L2BWMult = 0 }, "L2BWMult"},
		{func(c *Config) { c.IssuePerSM = math.NaN() }, "IssuePerSM"},
		{func(c *Config) { c.DRAMGBps = math.Inf(1) }, "DRAMGBps"},
		{func(c *Config) { c.XbarGBps = math.NaN() }, "XbarGBps"},
		{func(c *Config) { c.L2BWMult = math.Inf(1) }, "L2BWMult"},
		{func(c *Config) { c.Link.GBps = math.NaN() }, "Link.GBps"},
		{func(c *Config) { c.Topology = TopologyKind(99) }, "topology"},
		{func(c *Config) { c.Scheduler = SchedulerKind(-1) }, "scheduler"},
		{func(c *Config) { c.Placement = PlacementKind(7) }, "placement"},
		{func(c *Config) { c.L15Alloc = AllocPolicy(3) }, "allocation"},
		{func(c *Config) { c.Link.ReqHeaderBytes = -1 }, "header"},
		{func(c *Config) { c.Link.RespHeaderBytes = -8 }, "header"},
		{func(c *Config) { c.L1.SizeBytes = 0 }, "L1 must be enabled"},
		{func(c *Config) { c.L2.SizeBytes = 0 }, "L2 must be enabled"},
		// 768 B / 128 B = 6 lines: 6/4 = 1 set (a power of two) but 6 % 4 != 0,
		// which used to slip through Validate and panic in cache.New.
		{func(c *Config) { c.L1.SizeBytes = 768 }, "divisible"},
		{func(c *Config) { c.PageBytes = 64 }, "smaller than"},
		// Unmodeled write policies (footnote 4 of the paper): the simulator
		// would silently run them as write-through L1/L1.5 and write-back L2.
		{func(c *Config) { c.L1.WriteBack = true }, "L1 must be write-through, not write-back (footnote 4"},
		{func(c *Config) {
			*c = *OptimizedMCM()
			c.L15.WriteBack = true
		}, "L1.5 must be write-through, not write-back (footnote 4"},
		{func(c *Config) { c.L2.WriteBack = false }, "L2 must be write-back, not write-through (footnote 4"},
	}
	for i, tc := range cases {
		c := BaselineMCM()
		tc.mutate(c)
		err := c.Validate()
		if err == nil {
			t.Errorf("case %d: Validate accepted a broken config", i)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := BaselineMCM()
	b := a.Clone()
	b.Link.GBps = 1
	b.L2.SizeBytes = 1 * MB
	if a.Link.GBps != 768 || a.L2.SizeBytes != 4*MB {
		t.Fatalf("Clone shares state with original")
	}
}

func TestStringers(t *testing.T) {
	if AllocRemoteOnly.String() != "remote-only" || AllocAll.String() != "all" {
		t.Errorf("AllocPolicy strings wrong")
	}
	if SchedDistributed.String() != "distributed" || SchedCentralized.String() != "centralized" {
		t.Errorf("SchedulerKind strings wrong")
	}
	if PlaceFirstTouch.String() != "first-touch" || PlaceInterleave.String() != "interleave" {
		t.Errorf("PlacementKind strings wrong")
	}
	if TopoRing.String() != "ring" || TopoNone.String() != "none" || TopoCrossbar.String() != "crossbar" {
		t.Errorf("TopologyKind strings wrong")
	}
}

func TestMCMWithLink(t *testing.T) {
	for _, bw := range []float64{384, 768, 1536, 3072, 6144} {
		c := MCMWithLink(bw)
		if err := c.Validate(); err != nil {
			t.Fatalf("link %v invalid: %v", bw, err)
		}
		if c.Link.GBps != bw {
			t.Errorf("link = %v, want %v", c.Link.GBps, bw)
		}
	}
}

func TestCacheConfigHelpers(t *testing.T) {
	cc := CacheConfig{SizeBytes: 16 * KB, LineBytes: 128, Ways: 4}
	if !cc.Enabled() {
		t.Errorf("Enabled = false")
	}
	if got := cc.Lines(); got != 128 {
		t.Errorf("Lines = %d, want 128", got)
	}
	var off CacheConfig
	if off.Enabled() || off.Lines() != 0 {
		t.Errorf("zero CacheConfig should be disabled with 0 lines")
	}
}

func TestMCMGPMs(t *testing.T) {
	for _, gpms := range []int{2, 4, 8, 16} {
		c, err := MCMGPMs(gpms)
		if err != nil {
			t.Fatalf("MCMGPMs(%d): %v", gpms, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%d GPMs invalid: %v", gpms, err)
		}
		if c.TotalSMs() != 256 {
			t.Errorf("%d GPMs: SMs = %d, want 256", gpms, c.TotalSMs())
		}
		if got := c.TotalDRAMGBps(); got != 3072 {
			t.Errorf("%d GPMs: DRAM = %v, want 3072", gpms, got)
		}
		if got := c.TotalL15Bytes() + c.TotalL2Bytes(); got != 16*MB {
			t.Errorf("%d GPMs: cache budget = %d, want 16MB", gpms, got)
		}
		wantTopo := TopoRing
		if gpms > 4 {
			wantTopo = TopoMesh
		}
		if c.Topology != wantTopo {
			t.Errorf("%d GPMs: topology = %v, want %v", gpms, c.Topology, wantTopo)
		}
	}
}

func TestMCMGPMsRejectsOddCounts(t *testing.T) {
	for _, gpms := range []int{3, 0, -2, 5} {
		if c, err := MCMGPMs(gpms); err == nil {
			t.Errorf("MCMGPMs(%d) = %v, want error", gpms, c)
		}
	}
}

func TestMustMCMGPMsPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustMCMGPMs(3) did not panic")
		}
	}()
	MustMCMGPMs(3)
}
