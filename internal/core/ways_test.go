package core

import (
	"fmt"
	"testing"

	"mcmgpu/internal/cache"
	"mcmgpu/internal/config"
	"mcmgpu/internal/engine"
	"mcmgpu/internal/workload"
)

// wayPresets are the machines every shipped workload runs on: the paper's
// baseline and optimized MCM-GPUs and the tiled, region-aware pairing of
// the dense study.
func wayPresets() []*config.Config {
	return []*config.Config{config.BaselineMCM(), config.OptimizedMCM(), config.TiledRegionMCM()}
}

// runAt runs spec on a new machine built from cfg with way entries of the
// given width, whatever narrowWays would pick, and returns its result's
// JSON. It is the only way a run takes a width its spec does not select.
func runAt(t *testing.T, cfg *config.Config, spec *workload.Spec, narrow bool) string {
	t.Helper()
	m, err := New(cfg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	m.assemble(narrow)
	res, err := m.run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, res)
}

// TestNarrowAndWideWaysAgree runs every suite app at scale 0.05 and the
// dense pair at the same scale on the three presets once with 16-bit way
// entries and once with 32-bit ones, and requires equal results: the width
// changes host bytes, never a simulated number.
func TestNarrowAndWideWaysAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("300 runs")
	}
	specs := append(workload.Suite(), workload.Dense()...)
	for _, cfg := range wayPresets() {
		for _, app := range specs {
			spec := app.Scaled(0.05)
			if !narrowWays(cfg, spec) {
				t.Fatalf("%s on %s does not select 16-bit way entries", spec.Name, cfg.Name)
			}
			if narrow, wide := runAt(t, cfg, spec, true), runAt(t, cfg, spec, false); narrow != wide {
				t.Errorf("%s on %s: 16-bit and 32-bit way entries differ:\n16-bit %s\n32-bit %s",
					spec.Name, cfg.Name, narrow, wide)
			}
		}
	}
}

// TestNarrowWaysRule pins the width rule at its bound: a run keeps 16-bit
// way entries exactly when the last footprint line's tag fits 14 bits at
// the level with the fewest sets. The presets' L1s have 256 sets, the
// fewest, so their bound is 2^22 lines; an L1 of 8 sets moves it to 2^17,
// a 1 MB L1.5 split (128 sets per module) to 2^21, and the 16 MB split,
// which leaves each L2 slice 16 sets, to 2^18.
func TestNarrowWaysRule(t *testing.T) {
	tinyL1 := config.BaselineMCM()
	tinyL1.Name, tinyL1.L1.SizeBytes = "tiny-l1", 4*config.KB // 32 lines, 4 ways: 8 sets
	cases := []struct {
		cfg   *config.Config
		bound uint64 // the largest footprint, in lines, that keeps 16-bit entries
	}{
		{config.BaselineMCM(), 1 << 22},
		{config.OptimizedMCM(), 1 << 22},
		{config.TiledRegionMCM(), 1 << 22},
		{tinyL1, 1 << 17},
		{config.WithL15(config.BaselineMCM(), 1*config.MB, config.AllocRemoteOnly), 1 << 21},
		{config.OptimizedMCM16(), 1 << 18},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, fp := range []uint64{c.bound, c.bound + 1} {
			spec := &workload.Spec{FootprintLines: fp}
			if got, want := narrowWays(c.cfg, spec), fp == c.bound; got != want {
				t.Errorf("%s, footprint %d lines: narrow = %v, want %v", c.cfg.Name, fp, got, want)
			}
		}
	}
}

// TestWideSpecNeedsWideWays checks that wideSpec, which the spare tests
// run to exercise 32-bit way entries, selects them and needs them: run
// with 16-bit entries it reaches a tag beyond their 14 bits, which panics
// rather than alias another line.
func TestWideSpecNeedsWideWays(t *testing.T) {
	cfg, spec := config.BaselineMCM(), wideSpec()
	if narrowWays(cfg, spec) {
		t.Fatalf("%s selects 16-bit way entries on %s", spec.Name, cfg.Name)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("%s ran with 16-bit way entries on %s", spec.Name, cfg.Name)
		}
	}()
	runAt(t, cfg, spec, true)
}

// TestShippedWorkloadsNarrow requires every suite and dense workload at
// full size to select 16-bit way entries on the three presets. A footprint
// change that crossed the bound would silently double the way slab; this
// makes it fail loudly instead.
func TestShippedWorkloadsNarrow(t *testing.T) {
	for _, cfg := range wayPresets() {
		for _, spec := range append(workload.Suite(), workload.Dense()...) {
			if !narrowWays(cfg, spec) {
				t.Errorf("%s (%d lines) on %s selects 32-bit way entries", spec.Name, spec.FootprintLines, cfg.Name)
			}
		}
	}
}

// TestTakeStorageDropsEachSlab pins the size rule on each slab of a spare
// on its own: a spare whose slab of the run's width holds more than twice
// the entries the run needs is dropped whole, while one whose other slab
// does loses only that slab, and a slab within the rule keeps its array.
func TestTakeStorageDropsEachSlab(t *testing.T) {
	cfg := config.BaselineMCM()
	const lines, sets = 1000, 100
	sim := engine.New()
	for _, c := range []struct {
		narrow, wide int // the spare's slab capacities
		useNarrow    bool
		keeps        bool // the run takes the spare
		keepsOther   bool // the slab of the other width survives
	}{
		{2000, 2000, true, true, true},
		{2001, 0, true, false, false},
		{1000, 2001, true, true, false},
		{500, 2000, true, true, true}, // too small: a new 16-bit slab, same spare
		{0, 2001, false, false, false},
		{2001, 1500, false, true, false},
	} {
		name := fmt.Sprintf("16-bit %d, 32-bit %d, run narrow %v", c.narrow, c.wide, c.useNarrow)
		emptySpares()
		spare := storage{slab: cache.Lines{Narrow: make([]uint16, 0, c.narrow), Wide: make([]uint32, 0, c.wide)}, sim: sim}
		spares.Lock()
		spares.stack = append(spares.stack, spare)
		spares.Unlock()
		st := takeStorage(cfg, lines, sets, c.useNarrow)
		used, other := len(st.slab.Narrow), cap(st.slab.Wide)
		otherWas := c.wide
		if !c.useNarrow {
			used, other, otherWas = len(st.slab.Wide), cap(st.slab.Narrow), c.narrow
		}
		if used != lines || len(st.slab.Narrow)+len(st.slab.Wide) != lines {
			t.Errorf("%s: the run got %d entries of its width and %d in all, want %d", name, used, len(st.slab.Narrow)+len(st.slab.Wide), lines)
		}
		if (st.sim == sim) != c.keeps {
			t.Errorf("%s: took the spare = %v, want %v", name, st.sim == sim, c.keeps)
		}
		if c.keeps && (other == otherWas) != c.keepsOther {
			t.Errorf("%s: the other slab's capacity went from %d to %d; kept want %v", name, otherWas, other, c.keepsOther)
		}
	}
	emptySpares()
}
