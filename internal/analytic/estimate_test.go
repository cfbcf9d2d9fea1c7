package analytic

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/workload"
)

// Property: granting more inter-GPM link bandwidth never predicts a lower
// IPC. The link enters the estimate only through the wire-traffic roofline
// term, which shrinks as bandwidth grows, so the closed form is exactly
// monotone — a sign flip here would mean the sweep's phase 1 could steer
// phase 2 toward starved links.
func TestEstimateLinkMonotoneProperty(t *testing.T) {
	specs := workload.Suite()
	f := func(wi uint8, a, b uint16, sq uint8) bool {
		spec := specs[int(wi)%len(specs)]
		lo, hi := float64(a%8000)+64, float64(b%8000)+64
		if lo > hi {
			lo, hi = hi, lo
		}
		scale := 0.05 + float64(sq%16)/16
		ipc := func(gbps float64) float64 {
			e, err := NewEstimator(config.MCMWithLink(gbps))
			if err != nil {
				t.Fatal(err)
			}
			est, err := e.Estimate(spec, scale)
			if err != nil {
				t.Fatal(err)
			}
			return est.IPC
		}
		return ipc(hi) >= ipc(lo)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a higher remote-homed traffic fraction never predicts a higher
// throughput factor at any link setting (Section 3.3.1's model).
func TestModelRemoteFractionMonotoneProperty(t *testing.T) {
	f := func(a, b uint8, link uint16) bool {
		lo, hi := float64(a)/255, float64(b)/255
		if lo > hi {
			lo, hi = hi, lo
		}
		m := PaperExample()
		gbps := float64(link)
		m.RemoteFraction = lo
		sLo := m.Slowdown(gbps)
		m.RemoteFraction = hi
		sHi := m.Slowdown(gbps)
		return sHi <= sLo+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateDeterministic: estimation is pure. The same (config,
// workload, scale) produces byte-identical output across repeated calls,
// across fresh estimators, and under concurrent use of one shared
// estimator — there is no hidden state and no engine behind it.
func TestEstimateDeterministic(t *testing.T) {
	cfg := config.OptimizedMCM()
	specs := workload.Suite()
	canon := func(e *Estimator, s *workload.Spec) []byte {
		est, err := e.Estimate(s, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(est)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	shared, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(specs))
	for i, s := range specs {
		want[i] = canon(shared, s)
	}
	// Fresh estimator, reversed order: same bytes.
	fresh, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(specs) - 1; i >= 0; i-- {
		if got := canon(fresh, specs[i]); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s: fresh-estimator output differs:\n%s\n%s", specs[i].Name, got, want[i])
		}
	}
	// Concurrent use of the shared estimator: same bytes from every
	// goroutine (run with -race to also check for write races).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range specs {
				if got := canon(shared, s); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: concurrent output differs", s.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCensusReadsStaticPageMap pins that the placement census walks the
// page homes core.StaticPageMap hands it rather than recomputing them:
// rehoming every page of the map onto module 0 must move the whole uniform
// class there, while the real map spreads it.
func TestCensusReadsStaticPageMap(t *testing.T) {
	cfg := config.TiledRegionMCM()
	e, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Dense()[0]
	pm := core.StaticPageMap(cfg, spec)
	if pm.Homes == nil {
		t.Fatalf("%s on %s has no static page map", spec.Name, cfg.Name)
	}
	var pLocal [nClasses]float64
	if q := e.placementHomes(spec, pm, 1, &pLocal); q == nil || q[clUniform][0] == 1 {
		t.Fatalf("census of the real map puts the whole uniform class on module 0: %v", q)
	}
	moved := pm
	moved.Homes = make([]int, len(pm.Homes))
	if q := e.placementHomes(spec, moved, 1, &pLocal); q == nil || q[clUniform][0] != 1 {
		t.Fatalf("census ignored the rehomed map: uniform class on module 0 = %v", q[clUniform][0])
	}
}

func TestModelValidate(t *testing.T) {
	if err := PaperExample().Validate(); err != nil {
		t.Fatalf("paper example: %v", err)
	}
	bad := []func(*Model){
		func(m *Model) { m.Modules = 0 },
		func(m *Model) { m.PartitionGBps = 0 },
		func(m *Model) { m.PartitionGBps = -3 },
		func(m *Model) { m.L2HitRate = 1 },
		func(m *Model) { m.L2HitRate = -0.1 },
		func(m *Model) { m.RemoteFraction = 1.5 },
	}
	for i, mutate := range bad {
		m := PaperExample()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, m)
		}
	}
}

// BenchmarkAnalyticEstimate measures the fast path's per-cell cost: one
// full-suite analytic evaluation of one grid configuration, the phase 1
// unit of work in cmd/sweep.
func BenchmarkAnalyticEstimate(b *testing.B) {
	e, err := NewEstimator(config.OptimizedMCM())
	if err != nil {
		b.Fatal(err)
	}
	specs := workload.Suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := e.Estimate(s, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	}
}
