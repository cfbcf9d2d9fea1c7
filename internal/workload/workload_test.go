package workload

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestSuiteComposition(t *testing.T) {
	all := Suite()
	if len(all) != 48 {
		t.Fatalf("suite has %d applications, want 48 (Section 4)", len(all))
	}
	if got := len(MIntensive()); got != 17 {
		t.Errorf("M-Intensive count = %d, want 17 (Table 4)", got)
	}
	if got := len(CIntensive()); got != 16 {
		t.Errorf("C-Intensive count = %d, want 16", got)
	}
	if got := len(Limited()); got != 15 {
		t.Errorf("Limited-parallelism count = %d, want 15", got)
	}
	if got := len(MIntensive()) + len(CIntensive()); got != 33 {
		t.Errorf("high-parallelism count = %d, want 33", got)
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Errorf("duplicate application name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", s.Name, err)
		}
	}
}

func TestSelect(t *testing.T) {
	cases := []struct {
		sel  string
		want []*Spec
	}{
		{"all", Suite()},
		{"m-intensive", MIntensive()},
		{"C-Intensive", CIntensive()},
		{"limited", Limited()},
		{"dense", Dense()},
		{"Stream", []*Spec{MIntensive()[1]}},
		{"GEMM2D-4K", Dense()[:1]},
	}
	for _, c := range cases {
		got, err := Select(c.sel)
		if err != nil {
			t.Errorf("Select(%q): %v", c.sel, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("Select(%q) = %d specs, want %d", c.sel, len(got), len(c.want))
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Select(%q)[%d] = %s, want %s", c.sel, i, got[i].Name, c.want[i].Name)
			}
		}
	}
	if _, err := Select("no-such-app"); err == nil {
		t.Error("Select accepted an unknown name")
	}
}

func TestTable4NamesPresent(t *testing.T) {
	// Every workload in Table 4 must exist with its published footprint.
	want := map[string]int{
		"AMG": 5430, "NN-Conv": 496, "BFS": 37, "CFD": 25, "CoMD": 385,
		"Kmeans": 216, "Lulesh1": 1891, "Lulesh2": 4309, "Lulesh3": 203,
		"MiniAMR": 5407, "MnCtct": 251, "MST": 73, "Nekbone1": 1746,
		"Nekbone2": 287, "Srad-v2": 96, "SSSP": 37, "Stream": 3072,
	}
	for name, mb := range want {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("missing Table 4 workload %s: %v", name, err)
			continue
		}
		if s.Category != MemoryIntensive {
			t.Errorf("%s category = %v, want M-Intensive", name, s.Category)
		}
		if s.PaperFootprintMB != mb {
			t.Errorf("%s paper footprint = %d MB, want %d", name, s.PaperFootprintMB, mb)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatalf("ByName accepted an unknown workload")
	}
}

func TestLimitedParallelismCannotFill256SMs(t *testing.T) {
	// 256 SMs x 64 warps = 16384 warp slots. Limited-parallelism apps must
	// leave most of them empty; high-parallelism apps must oversubscribe.
	for _, s := range Limited() {
		if w := s.TotalWarps(); w > 16384/4 {
			t.Errorf("%s has %d warps; too parallel for its category", s.Name, w)
		}
	}
	for _, s := range append(MIntensive(), CIntensive()...) {
		if w := s.TotalWarps(); w < 4096 {
			t.Errorf("%s has only %d warps; cannot fill a 256-SM GPU", s.Name, w)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	spec, err := ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	var a, b []uint32
	for _, dst := range []*[]uint32{&a, &b} {
		st := NewStream(spec, 7, 3)
		var op Op
		for st.Next(spec, &op) {
			*dst = append(*dst, op.Lines[:op.NumLines]...)
		}
	}
	if len(a) == 0 {
		t.Fatalf("empty stream")
	}
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStreamOpCount(t *testing.T) {
	spec, err := ByName("Stream")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStream(spec, 0, 0)
	var op Op
	n := 0
	for st.Next(spec, &op) {
		n++
		if int(op.NumLines) != spec.LinesPerOp {
			t.Fatalf("op %d touches %d lines, want %d", n, op.NumLines, spec.LinesPerOp)
		}
		if int(op.Compute) != spec.ComputePerMem {
			t.Fatalf("op %d compute = %d, want %d", n, op.Compute, spec.ComputePerMem)
		}
	}
	if n != spec.MemOpsPerWarp {
		t.Fatalf("stream yielded %d ops, want %d", n, spec.MemOpsPerWarp)
	}
}

func TestStreamingCTAsTouchDisjointRegions(t *testing.T) {
	spec, err := ByName("Stream")
	if err != nil {
		t.Fatal(err)
	}
	touched := func(cta int) map[uint32]bool {
		m := map[uint32]bool{}
		for w := 0; w < spec.WarpsPerCTA; w++ {
			st := NewStream(spec, cta, w)
			var op Op
			for st.Next(spec, &op) {
				for _, l := range op.Lines[:op.NumLines] {
					m[l] = true
				}
			}
		}
		return m
	}
	a := touched(10)
	b := touched(500)
	for l := range a {
		if b[l] {
			t.Fatalf("CTAs 10 and 500 share line %d under pure streaming", l)
		}
	}
}

func TestStencilNeighborsShareLines(t *testing.T) {
	spec, err := ByName("CoMD")
	if err != nil {
		t.Fatal(err)
	}
	touched := func(cta int) map[uint32]bool {
		m := map[uint32]bool{}
		for w := 0; w < spec.WarpsPerCTA; w++ {
			st := NewStream(spec, cta, w)
			var op Op
			for st.Next(spec, &op) {
				for _, l := range op.Lines[:op.NumLines] {
					m[l] = true
				}
			}
		}
		return m
	}
	a := touched(100)
	b := touched(101)
	shared := 0
	for l := range a {
		if b[l] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("adjacent stencil CTAs share no lines")
	}
}

// Property: every generated line address is inside the footprint, for every
// application in the suite.
func TestAddressesInRangeProperty(t *testing.T) {
	f := func(appIdx uint8, cta uint16, warp uint8) bool {
		all := Suite()
		spec := all[int(appIdx)%len(all)]
		c := int(cta) % spec.CTAs
		w := int(warp) % spec.WarpsPerCTA
		st := NewStream(spec, c, w)
		var op Op
		for st.Next(spec, &op) {
			for _, l := range op.Lines[:op.NumLines] {
				if uint64(l) >= spec.FootprintLines {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScaled(t *testing.T) {
	spec, err := ByName("MiniAMR")
	if err != nil {
		t.Fatal(err)
	}
	half := spec.Scaled(0.5)
	if half.MemOpsPerWarp != spec.MemOpsPerWarp/2 {
		t.Errorf("scaled ops = %d, want %d", half.MemOpsPerWarp, spec.MemOpsPerWarp/2)
	}
	if half.CTAs != spec.CTAs {
		t.Errorf("Scaled changed parallelism")
	}
	if half.FootprintLines >= spec.FootprintLines {
		t.Errorf("Scaled did not shrink footprint")
	}
	if err := half.Validate(); err != nil {
		t.Errorf("scaled spec invalid: %v", err)
	}
	// Tiny scales never produce an invalid spec.
	tiny := spec.Scaled(0.001)
	if err := tiny.Validate(); err != nil {
		t.Errorf("tiny scale invalid: %v", err)
	}
	if tiny.MemOpsPerWarp < 1 {
		t.Errorf("tiny scale produced %d ops", tiny.MemOpsPerWarp)
	}
}

func TestScaledRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Scaled(0) did not panic")
		}
	}()
	spec := Suite()[0]
	spec.Scaled(0)
}

// TestAtScale: 1 and any scale that is not positive mean full size, the
// spec itself; any other scale is Scaled.
func TestAtScale(t *testing.T) {
	spec := Suite()[0]
	for _, f := range []float64{1, 0, -1, math.NaN()} {
		if got := spec.AtScale(f); got != spec {
			t.Errorf("AtScale(%v) = %p, want the spec itself (%p)", f, got, spec)
		}
	}
	if got, want := spec.AtScale(0.5), spec.Scaled(0.5); *got != *want {
		t.Errorf("AtScale(0.5) = %+v, want Scaled(0.5) = %+v", got, want)
	}
}

// TestValidateBounds pins the bounds that let a stream hold addresses and
// counters in 32 bits: each is accepted at its limit and rejected one past
// it, with an error naming the limit. At the limits a stream still yields
// addresses inside the footprint and a skewed op count that fits.
func TestValidateBounds(t *testing.T) {
	base, err := ByName("Stream")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		limit int
		set   func(s *Spec, v int)
	}{
		{"footprint", MaxFootprintLines, func(s *Spec, v int) { s.FootprintLines = uint64(v) }},
		{"ops per warp", math.MaxInt32 / 2, func(s *Spec, v int) { s.MemOpsPerWarp = v }},
		{"compute per op", math.MaxInt32, func(s *Spec, v int) { s.ComputePerMem = v }},
		{"warps per CTA", math.MaxInt32, func(s *Spec, v int) { s.WarpsPerCTA = v }},
	}
	for _, tc := range cases {
		at := *base
		at.WorkImbalance = 1
		tc.set(&at, tc.limit)
		if err := at.Validate(); err != nil {
			t.Errorf("%s at the limit rejected: %v", tc.name, err)
		}
		if ops := at.OpsForCTA(at.CTAs - 1); ops > math.MaxInt32 {
			t.Errorf("%s at the limit: the last CTA runs %d ops per warp, beyond int32", tc.name, ops)
		}
		st := NewStream(&at, at.CTAs-1, 0)
		var op Op
		for n := 0; n < 64 && st.Next(&at, &op); n++ {
			for _, l := range op.Lines[:op.NumLines] {
				if uint64(l) >= at.FootprintLines {
					t.Fatalf("%s at the limit: line %d outside the %d-line footprint", tc.name, l, at.FootprintLines)
				}
			}
		}
		past := *base
		tc.set(&past, tc.limit+1)
		if err := past.Validate(); err == nil || !strings.Contains(err.Error(), strconv.Itoa(tc.limit)) {
			t.Errorf("%s one past the limit: Validate = %v, want an error naming %d", tc.name, err, tc.limit)
		}
	}
}

func TestTotalMemOps(t *testing.T) {
	s := Spec{CTAs: 10, WarpsPerCTA: 4, MemOpsPerWarp: 8, KernelIters: 3}
	if got := s.TotalMemOps(); got != 960 {
		t.Fatalf("TotalMemOps = %d, want 960", got)
	}
}

func TestWriteFractionApproximatelyHonored(t *testing.T) {
	spec, err := ByName("Streamcluster") // write fraction 0.45
	if err != nil {
		t.Fatal(err)
	}
	writes, total := 0, 0
	for c := 0; c < 32; c++ {
		st := NewStream(spec, c, 0)
		var op Op
		for st.Next(spec, &op) {
			total++
			if op.Write {
				writes++
			}
		}
	}
	got := float64(writes) / float64(total)
	if got < 0.35 || got > 0.55 {
		t.Fatalf("observed write fraction %v, want ~0.45", got)
	}
}

func TestCategoryStrings(t *testing.T) {
	if MemoryIntensive.String() != "M-Intensive" ||
		ComputeIntensive.String() != "C-Intensive" ||
		LimitedParallelism.String() != "Lim-Parallel" {
		t.Fatalf("category strings wrong")
	}
	for _, p := range []Pattern{PatStreaming, PatStrided, PatStencil, PatIrregular, PatHotRegion, PatComputeTile} {
		if p.String() == "" {
			t.Fatalf("pattern %d has empty string", p)
		}
	}
}

func TestWorkImbalance(t *testing.T) {
	spec, err := ByName("MST")
	if err != nil {
		t.Fatal(err)
	}
	if spec.WorkImbalance <= 0 {
		t.Fatalf("MST should carry work imbalance")
	}
	// Per-CTA op counts vary but stay within [1-W, 1+W] of the nominal.
	min, max := spec.MemOpsPerWarp, spec.MemOpsPerWarp
	for cta := 0; cta < spec.CTAs; cta++ {
		ops := spec.OpsForCTA(cta)
		if ops < min {
			min = ops
		}
		if ops > max {
			max = ops
		}
	}
	if min == max {
		t.Fatalf("imbalanced workload has uniform per-CTA work (%d)", min)
	}
	lo := float64(spec.MemOpsPerWarp) * (1 - spec.WorkImbalance)
	hi := float64(spec.MemOpsPerWarp) * (1 + spec.WorkImbalance)
	if float64(min) < lo-1 || float64(max) > hi+1 {
		t.Fatalf("per-CTA ops [%d,%d] outside [%v,%v]", min, max, lo, hi)
	}
	// TotalMemOps matches what the streams actually produce.
	var produced uint64
	var op Op
	for cta := 0; cta < spec.CTAs; cta++ {
		st := NewStream(spec, cta, 0)
		for st.Next(spec, &op) {
			produced++
		}
	}
	produced *= uint64(spec.WarpsPerCTA) * uint64(spec.KernelIters)
	if produced != spec.TotalMemOps() {
		t.Fatalf("TotalMemOps = %d, streams produce %d", spec.TotalMemOps(), produced)
	}
}

func TestOpsForCTAUniformWithoutImbalance(t *testing.T) {
	spec, err := ByName("Stream")
	if err != nil {
		t.Fatal(err)
	}
	for cta := 0; cta < 16; cta++ {
		if got := spec.OpsForCTA(cta); got != spec.MemOpsPerWarp {
			t.Fatalf("OpsForCTA(%d) = %d, want %d", cta, got, spec.MemOpsPerWarp)
		}
	}
}
