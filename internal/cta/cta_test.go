package cta

import (
	"testing"
	"testing/quick"

	"mcmgpu/internal/config"
)

func TestCentralizedGlobalOrder(t *testing.T) {
	s := NewCentralized(8)
	var got []int
	// SMs from alternating modules pull CTAs; indices must be global order.
	for m := 0; s.Remaining() > 0; m = (m + 1) % 4 {
		got = append(got, s.Next(m))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("centralized order %v, want consecutive", got)
		}
	}
	if s.Next(0) != -1 {
		t.Fatalf("exhausted scheduler returned a CTA")
	}
}

func TestCentralizedSpreadsConsecutiveCTAs(t *testing.T) {
	// Figure 8a: with round-robin pulls, consecutive CTAs land on
	// different modules.
	s := NewCentralized(8)
	mods := map[int]int{}
	for m := 0; m < 8; m++ {
		cta := s.Next(m % 4)
		mods[cta] = m % 4
	}
	if mods[0] == mods[1] && mods[1] == mods[2] && mods[2] == mods[3] {
		t.Fatalf("consecutive CTAs all on one module under centralized pulls")
	}
}

func TestDistributedContiguousChunks(t *testing.T) {
	// Figure 8b: 16 CTAs over 4 modules -> module m gets [4m, 4m+4).
	s := NewDistributed(16, 4, 1)
	for m := 0; m < 4; m++ {
		for k := 0; k < 4; k++ {
			want := 4*m + k
			if got := s.Next(m); got != want {
				t.Fatalf("module %d draw %d = %d, want %d", m, k, got, want)
			}
		}
		if got := s.Next(m); got != -1 {
			t.Fatalf("module %d overdrew: %d", m, got)
		}
	}
	if s.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", s.Remaining())
	}
}

func TestDistributedNoStealing(t *testing.T) {
	// A module that finishes early idles rather than stealing: the paper's
	// coarse-grain imbalance.
	s := NewDistributed(8, 2, 1)
	for i := 0; i < 4; i++ {
		s.Next(0)
	}
	if got := s.Next(0); got != -1 {
		t.Fatalf("module 0 stole CTA %d from module 1", got)
	}
	if got := s.Next(1); got != 4 {
		t.Fatalf("module 1's chunk disturbed: got %d, want 4", got)
	}
}

func TestDistributedUnevenSplit(t *testing.T) {
	// 10 CTAs over 4 modules: chunk sizes 3,3,2,2 and full coverage.
	s := NewDistributed(10, 4, 1)
	seen := map[int]bool{}
	count := 0
	for m := 0; m < 4; m++ {
		for {
			i := s.Next(m)
			if i == -1 {
				break
			}
			if seen[i] {
				t.Fatalf("CTA %d issued twice", i)
			}
			seen[i] = true
			count++
		}
	}
	if count != 10 {
		t.Fatalf("issued %d CTAs, want 10", count)
	}
}

func TestDistributedFinerChunks(t *testing.T) {
	// 2 chunks per module over 16 CTAs and 2 modules:
	// module 0 gets [0,4) and [8,12); module 1 gets [4,8) and [12,16).
	s := NewDistributed(16, 2, 2)
	var m0 []int
	for {
		i := s.Next(0)
		if i == -1 {
			break
		}
		m0 = append(m0, i)
	}
	want := []int{0, 1, 2, 3, 8, 9, 10, 11}
	if len(m0) != len(want) {
		t.Fatalf("module 0 drew %v, want %v", m0, want)
	}
	for i := range want {
		if m0[i] != want[i] {
			t.Fatalf("module 0 drew %v, want %v", m0, want)
		}
	}
}

// TestDistributedListsBuiltOnce checks the chunk lists NewDistributed
// makes at their final sizes, with fewer CTAs than chunks and with more:
// chunk ci covers its contiguous share of the index space and belongs to
// module ci%modules, each module's list holds exactly its chunks in order,
// filled to capacity, and a launch allocates five objects however many
// chunks it splits into.
func TestDistributedListsBuiltOnce(t *testing.T) {
	for _, shape := range [][3]int{{1021, 4, 1}, {3, 4, 2}, {100, 4, 8}, {64, 4, 16}, {2048, 8, 4}} {
		n, modules, chunks := shape[0], shape[1], shape[2]
		d := NewDistributed(n, modules, chunks)
		if want := min(n, modules*chunks); len(d.layout) != want || len(d.next) != want {
			t.Fatalf("%v: %d chunks and %d cursors, want %d", shape, len(d.layout), len(d.next), want)
		}
		end := 0
		for ci, c := range d.layout {
			if c.start != end || c.end <= c.start || c.module != ci%modules || d.next[ci] != c.start {
				t.Fatalf("%v: chunk %d is %+v with cursor %d after a chunk ending at %d", shape, ci, c, d.next[ci], end)
			}
			end = c.end
		}
		if end != n {
			t.Fatalf("%v: chunks cover [0,%d), want [0,%d)", shape, end, n)
		}
		for m, own := range d.perModule {
			if len(own) != cap(own) {
				t.Fatalf("%v: module %d holds %d chunks in a list of capacity %d", shape, m, len(own), cap(own))
			}
			for k, ci := range own {
				if ci != m+k*modules {
					t.Fatalf("%v: module %d's chunks are %v", shape, m, own)
				}
			}
		}
		if got := testing.AllocsPerRun(10, func() { NewDistributed(n, modules, chunks) }); got != 5 {
			t.Fatalf("%v: NewDistributed allocated %v objects, want 5", shape, got)
		}
	}
}

func TestModuleLookup(t *testing.T) {
	s := NewDistributed(16, 4, 1)
	for i := 0; i < 16; i++ {
		if got, want := s.Module(i), i/4; got != want {
			t.Fatalf("Module(%d) = %d, want %d", i, got, want)
		}
	}
	if s.Module(99) != -1 {
		t.Fatalf("Module out of range did not return -1")
	}
}

func TestNewFromConfig(t *testing.T) {
	c := config.BaselineMCM()
	if _, ok := New(c, Grid{CTAs: 100}).(*Centralized); !ok {
		t.Fatalf("baseline config did not produce a centralized scheduler")
	}
	c.Scheduler = config.SchedDistributed
	if _, ok := New(c, Grid{CTAs: 100}).(*Distributed); !ok {
		t.Fatalf("distributed config did not produce a distributed scheduler")
	}
}

func TestBadShapesPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewCentralized(0) },
		func() { NewDistributed(0, 4, 1) },
		func() { NewDistributed(8, 0, 1) },
		func() { NewDistributed(8, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad shape did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: a distributed scheduler issues every CTA exactly once, chunk
// assignment and Next agree, and Remaining counts down correctly.
func TestDistributedCompleteProperty(t *testing.T) {
	f := func(nRaw uint16, modRaw, chunkRaw uint8) bool {
		n := int(nRaw)%2000 + 1
		modules := int(modRaw)%8 + 1
		chunks := int(chunkRaw)%4 + 1
		s := NewDistributed(n, modules, chunks)
		issued := make([]bool, n)
		count := 0
		for m := 0; m < modules; m++ {
			for {
				i := s.Next(m)
				if i == -1 {
					break
				}
				if i < 0 || i >= n || issued[i] {
					return false
				}
				if s.Module(i) != m {
					return false
				}
				issued[i] = true
				count++
			}
		}
		return count == n && s.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicStealsFromBusiestModule(t *testing.T) {
	// Module 0 drains its chunk of 8, then steals the tail half of module
	// 1's untouched chunk.
	d := NewDistributed(16, 2, 1)
	y := NewDynamic(d)
	for i := 0; i < 8; i++ {
		if got := y.Next(0); got != i {
			t.Fatalf("own chunk draw %d = %d", i, got)
		}
	}
	first := y.Next(0)
	if first != 12 {
		t.Fatalf("first stolen CTA = %d, want 12 (tail half of [8,16))", first)
	}
	if len(y.owned) != 1 {
		t.Fatalf("%d steals, want 1", len(y.owned))
	}
	// The thief drains its stolen range contiguously.
	for want := 13; want < 16; want++ {
		if got := y.Next(0); got != want {
			t.Fatalf("stolen draw = %d, want %d", got, want)
		}
	}
	// The victim keeps its contiguous head.
	for want := 8; want < 12; want++ {
		if got := y.Next(1); got != want {
			t.Fatalf("victim draw = %d, want %d", got, want)
		}
	}
	if y.Next(0) != -1 || y.Next(1) != -1 || y.Remaining() != 0 {
		t.Fatalf("scheduler not drained cleanly")
	}
}

func TestDynamicIssuesEveryCTAOnce(t *testing.T) {
	y := NewDynamic(NewDistributed(101, 4, 2))
	issued := make([]bool, 101)
	count := 0
	// Interleave draws so stealing happens mid-flight.
	for rounds := 0; rounds < 1000 && count < 101; rounds++ {
		for m := 0; m < 4; m++ {
			// Module 3 draws 3x as fast to force imbalance.
			draws := 1
			if m == 3 {
				draws = 3
			}
			for k := 0; k < draws; k++ {
				i := y.Next(m)
				if i == -1 {
					continue
				}
				if i < 0 || i >= 101 || issued[i] {
					t.Fatalf("CTA %d issued twice or out of range", i)
				}
				issued[i] = true
				count++
			}
		}
	}
	if count != 101 {
		t.Fatalf("issued %d CTAs, want 101", count)
	}
	if y.Remaining() != 0 {
		t.Fatalf("Remaining = %d", y.Remaining())
	}
	if len(y.owned) == 0 {
		t.Fatalf("unbalanced draws caused no steals")
	}
}

func TestNewDynamicFromConfig(t *testing.T) {
	c := config.BaselineMCM()
	c.Scheduler = config.SchedDynamic
	if _, ok := New(c, Grid{CTAs: 100}).(*Dynamic); !ok {
		t.Fatalf("dynamic config did not produce a dynamic scheduler")
	}
}
