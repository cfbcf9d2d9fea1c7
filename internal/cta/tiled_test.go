package cta

import (
	"testing"
	"testing/quick"

	"mcmgpu/internal/config"
)

func drainAll(t *testing.T, s Scheduler, modules, n int) []int {
	t.Helper()
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	count := 0
	for progress := true; progress; {
		progress = false
		for m := 0; m < modules; m++ {
			for {
				i := s.Next(m)
				if i == -1 {
					break
				}
				if i < 0 || i >= n || owner[i] != -1 {
					t.Fatalf("CTA %d issued twice or out of range", i)
				}
				owner[i] = m
				count++
				progress = true
			}
		}
	}
	if count != n || s.Remaining() != 0 {
		t.Fatalf("issued %d of %d CTAs, Remaining = %d", count, n, s.Remaining())
	}
	return owner
}

func TestTiled2DSquareFactorization(t *testing.T) {
	// 4 modules over a 4x4 grid with symmetric panels factor as 2x2
	// super-tiles: module 0 owns x<2,y<2, module 1 x>=2,y<2, and so on.
	g := Grid{W: 4, H: 4, RowPanelLines: 100, ColPanelLines: 100}
	s := NewTiled2D(g, 4)
	owner := drainAll(t, s, 4, 16)
	for i, m := range owner {
		x, y := i%4, i/4
		want := (y/2)*2 + x/2
		if m != want {
			t.Fatalf("CTA (%d,%d) issued by module %d, want %d", x, y, m, want)
		}
		if got := s.Module(i); got != want {
			t.Fatalf("Module(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestTiled2DColumnPanelsSplitAlongColumns(t *testing.T) {
	// With only column panels (attention heads), the factorization puts
	// all modules along the x axis so every panel's consumers share one
	// module.
	g := Grid{W: 8, H: 4, ColPanelLines: 100}
	s := NewTiled2D(g, 4)
	owner := drainAll(t, s, 4, 32)
	for i, m := range owner {
		x := i % 8
		if want := x / 2; m != want {
			t.Fatalf("CTA %d (head %d) issued by module %d, want %d", i, x, m, want)
		}
	}
}

func TestTiled2DDegeneratesTo1DChunks(t *testing.T) {
	// A flat grid with no panel structure splits into contiguous chunks
	// along the index space, like the distributed scheduler.
	s := NewTiled2D(Grid{CTAs: 16}, 4)
	owner := drainAll(t, s, 4, 16)
	for i, m := range owner {
		if want := i / 4; m != want {
			t.Fatalf("CTA %d issued by module %d, want %d", i, m, want)
		}
	}
}

func TestTiled2DModuleTotalOverGrid(t *testing.T) {
	g := Grid{W: 7, H: 5, RowPanelLines: 64, ColPanelLines: 32}
	s := NewTiled2D(g, 6)
	for i := 0; i < 35; i++ {
		if m := s.Module(i); m < 0 || m >= 6 {
			t.Fatalf("Module(%d) = %d, out of range", i, m)
		}
	}
	if s.Module(-1) != -1 || s.Module(35) != -1 {
		t.Fatalf("out-of-range CTA index did not return -1")
	}
}

func TestNewTiled2DFromConfig(t *testing.T) {
	c := config.BaselineMCM()
	c.Scheduler = config.SchedTiled2D
	if _, ok := New(c, Grid{W: 10, H: 10}).(*Tiled2D); !ok {
		t.Fatalf("tiled2d config did not produce a tiled scheduler")
	}
}

func TestDynamicModuleTracksSteals(t *testing.T) {
	// Module 0 drains its chunk of [0,8) and steals [12,16) from module 1.
	// Module must report the thief for stolen indices and the victim for
	// the range it kept — the pre-fix code reported -1 for the former.
	d := NewDistributed(16, 2, 1)
	y := NewDynamic(d)
	for i := 0; i < 8; i++ {
		y.Next(0)
	}
	if got := y.Next(0); got != 12 {
		t.Fatalf("first stolen CTA = %d, want 12", got)
	}
	for i := 0; i < 8; i++ {
		if got := y.Module(i); got != 0 {
			t.Fatalf("Module(%d) = %d, want 0", i, got)
		}
	}
	for i := 8; i < 12; i++ {
		if got := y.Module(i); got != 1 {
			t.Fatalf("Module(%d) = %d, want victim 1", i, got)
		}
	}
	for i := 12; i < 16; i++ {
		if got := y.Module(i); got != 0 {
			t.Fatalf("Module(%d) = %d, want thief 0", i, got)
		}
	}
}

func TestDynamicStealsFromStolenRanges(t *testing.T) {
	// Module 0 drains its chunk [0,20) and steals [30,40) from module 1.
	// Module 1 then drains what it kept; its next draw must re-steal from
	// module 0's stolen list instead of idling while work remains — the
	// pre-fix scan only inspected the static layout.
	y := NewDynamic(NewDistributed(40, 2, 1))
	for i := 0; i < 20; i++ {
		y.Next(0)
	}
	if got := y.Next(0); got != 30 {
		t.Fatalf("module 0 stole %d, want 30", got)
	}
	for i := 0; i < 10; i++ {
		if got, want := y.Next(1), 20+i; got != want {
			t.Fatalf("victim draw = %d, want %d", got, want)
		}
	}
	got := y.Next(1)
	if got == -1 {
		t.Fatalf("module 1 starved while module 0 holds stolen work")
	}
	if got != 35 {
		t.Fatalf("module 1 re-stole %d, want 35 (tail half of [31,40))", got)
	}
	for i := 35; i < 40; i++ {
		if m := y.Module(i); m != 1 {
			t.Fatalf("Module(%d) = %d, want re-thief 1", i, m)
		}
	}
	// Full drain with no CTA lost or duplicated.
	seen := map[int]bool{30: true, 35: true}
	for i := 0; i < 30; i++ {
		seen[i] = true
	}
	for m := 0; m < 2; m++ {
		for {
			i := y.Next(m)
			if i == -1 {
				break
			}
			if seen[i] {
				t.Fatalf("CTA %d issued twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 40 || y.Remaining() != 0 {
		t.Fatalf("drained %d of 40, Remaining = %d", len(seen), y.Remaining())
	}
}

// TestSchedulerPropertyAllPolicies drives every scheduling policy with an
// adversarial, seeded module drain order and checks the scheduler contract:
// each CTA index is issued exactly once, Remaining counts down consistently,
// and for Layout implementations Module is total over [0,n), agrees with the
// issuing module, and rejects out-of-range indices.
func TestSchedulerPropertyAllPolicies(t *testing.T) {
	f := func(nRaw uint16, modRaw, chunkRaw, polRaw, wRaw uint8, seed uint64) bool {
		n := int(nRaw)%600 + 1
		modules := int(modRaw)%8 + 1
		chunks := int(chunkRaw)%4 + 1
		cfg := config.BaselineMCM()
		cfg.Modules = modules
		cfg.CTAChunksPerModule = chunks
		cfg.Scheduler = []config.SchedulerKind{
			config.SchedCentralized, config.SchedDistributed,
			config.SchedDynamic, config.SchedTiled2D,
		}[int(polRaw)%4]

		grid := Grid{CTAs: n}
		if w := int(wRaw)%12 + 1; n%w == 0 && cfg.Scheduler == config.SchedTiled2D {
			grid = Grid{W: w, H: n / w, RowPanelLines: uint64(seed % 97), ColPanelLines: uint64(seed % 53)}
		}
		s := New(cfg, grid)

		issuer := make([]int, n)
		for i := range issuer {
			issuer[i] = -1
		}
		issued := 0
		rng := seed
		next := func() uint64 {
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			return z ^ (z >> 27)
		}
		// Adversarial drain: random modules pull in bursts; fall back to a
		// full sweep when a burst finds nothing, stopping only when every
		// module reports empty.
		for issued < n {
			m := int(next() % uint64(modules))
			burst := int(next()%4) + 1
			got := 0
			for k := 0; k < burst; k++ {
				i := s.Next(m)
				if i == -1 {
					break
				}
				if i < 0 || i >= n || issuer[i] != -1 {
					return false
				}
				issuer[i] = m
				issued++
				got++
				if s.Remaining() != n-issued {
					return false
				}
			}
			if got == 0 {
				stuck := true
				for mm := 0; mm < modules && stuck; mm++ {
					if i := s.Next(mm); i != -1 {
						if i < 0 || i >= n || issuer[i] != -1 {
							return false
						}
						issuer[i] = mm
						issued++
						stuck = false
					}
				}
				if stuck {
					break
				}
			}
		}
		if issued != n || s.Remaining() != 0 {
			return false
		}
		lay, ok := s.(Layout)
		if !ok {
			return true
		}
		for i := 0; i < n; i++ {
			m := lay.Module(i)
			if m < 0 || m >= modules || m != issuer[i] {
				return false
			}
		}
		return lay.Module(-1) == -1 && lay.Module(n) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}
