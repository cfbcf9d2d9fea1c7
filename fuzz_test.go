package mcmgpu

import (
	"errors"
	"testing"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/workload"
)

// FuzzFaultSpec fuzzes the MCMGPU_FAULT plan parser: any input must either
// produce a descriptive error and the zero (disabled) plan, or a plan whose
// String form parses back to exactly the same plan — and never panic. The
// parser guards every CLI's startup, so a crash here is a crash before any
// simulation runs.
func FuzzFaultSpec(f *testing.F) {
	f.Add("")
	f.Add("panic@1000")
	f.Add("stall@0")
	f.Add("spin@50000:GEMM")
	f.Add("corrupt@42")
	f.Add("corrupt-counter.line-reads@1000")
	f.Add("corrupt-counter.clamp@5000:CFD")
	f.Add("corrupt-counter.bogus@10")
	f.Add("panic@@:")
	f.Add("panic@18446744073709551615")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := faultinject.Parse(s)
		if err != nil {
			if p != (faultinject.Plan{}) {
				t.Fatalf("Parse(%q) errored (%v) but returned non-zero plan %+v", s, err, p)
			}
			return
		}
		if s == "" {
			if p.Enabled() {
				t.Fatalf("Parse(\"\") returned an enabled plan %+v", p)
			}
			return
		}
		rt, err := faultinject.Parse(p.String())
		if err != nil {
			t.Fatalf("round trip of %q failed: Parse(%q): %v", s, p.String(), err)
		}
		if rt != p {
			t.Fatalf("round trip of %q diverged: %+v -> %q -> %+v", s, p, p.String(), rt)
		}
	})
}

// fuzzSpec is the tiny fixed workload FuzzConfigValidate drives through any
// machine that validates: small enough to stay fast per fuzz exec, with
// writes and multiple CTAs so every memory path is exercised. Its CTAs have
// two warps, or one on a machine whose SMs hold only one, so every
// validated config can host them. Its 2^15-line footprint is past the
// bound of 16-bit way entries for a cache level of one set, so a fuzzed
// geometry that small (the one-warp-sm seed's L1) runs 32-bit ones.
func fuzzSpec(cfg *config.Config) *workload.Spec {
	return &workload.Spec{
		Name: "fuzz-probe", Category: workload.MemoryIntensive, Pattern: workload.PatStreaming,
		CTAs: 8, WarpsPerCTA: min(2, cfg.WarpsPerSM), MemOpsPerWarp: 4, ComputePerMem: 2,
		KernelIters: 1, FootprintLines: 1 << 15, WriteFraction: 0.3, LinesPerOp: 1, Seed: 1,
	}
}

// FuzzConfigValidate fuzzes the configuration validator against the machine
// constructor: for an arbitrary Config, Validate must never panic, and a
// Config that Validate accepts must build (core.New) and run a small bounded
// workload without panicking. Every panic in construction — cache geometry,
// topology routing, address translation — must therefore be guarded by a
// Validate error first; historically lines-not-divisible-by-ways, disabled
// L1/L2, out-of-range enums and NaN rates all slipped through.
func FuzzConfigValidate(f *testing.F) {
	base := config.BaselineMCM()
	f.Add(base.Modules, base.SMsPerModule, base.PartitionsPerModule, base.WarpsPerSM, base.IssuePerSM,
		base.L1.SizeBytes, base.L1.Ways, base.L15.SizeBytes, base.L15.Ways, base.L2.SizeBytes, base.L2.Ways,
		base.PageBytes, base.DRAMGBps, base.XbarGBps, base.L2BWMult, base.Link.GBps,
		int(base.Topology), int(base.Scheduler), int(base.Placement), int(base.L15Alloc),
		base.Link.ReqHeaderBytes, base.Link.RespHeaderBytes)
	// 768-byte L1: 6 lines over 4 ways divides into a power-of-two set count
	// but not into whole ways — the classic cache.New panic.
	f.Add(4, 16, 2, 64, 2.0,
		768, 4, 0, 8, 1<<20, 16,
		64*1024, 768.0, 2048.0, 2.0, 768.0,
		1, 0, 0, 0, 32, 32)
	// Single module, no NoC, L1.5 disabled.
	f.Add(1, 32, 4, 64, 4.0,
		128*1024, 4, 0, 0, 2<<20, 16,
		64*1024, 768.0, 2048.0, 2.0, 0.0,
		0, 0, 0, 0, 32, 32)
	f.Fuzz(func(t *testing.T,
		modules, sms, parts, warps int, issue float64,
		l1Size, l1Ways, l15Size, l15Ways, l2Size, l2Ways int,
		pageBytes int, dram, xbar, l2bw, link float64,
		topo, sched, place, alloc int,
		reqHdr, respHdr int) {
		cfg := config.BaselineMCM()
		cfg.Name = "fuzz"
		cfg.Modules, cfg.SMsPerModule, cfg.PartitionsPerModule = modules, sms, parts
		cfg.WarpsPerSM, cfg.IssuePerSM = warps, issue
		cfg.L1.SizeBytes, cfg.L1.Ways = l1Size, l1Ways
		cfg.L15.SizeBytes, cfg.L15.Ways = l15Size, l15Ways
		cfg.L2.SizeBytes, cfg.L2.Ways = l2Size, l2Ways
		cfg.PageBytes = pageBytes
		cfg.DRAMGBps, cfg.XbarGBps, cfg.L2BWMult, cfg.Link.GBps = dram, xbar, l2bw, link
		cfg.Topology = config.TopologyKind(topo)
		cfg.Scheduler = config.SchedulerKind(sched)
		cfg.Placement = config.PlacementKind(place)
		cfg.L15Alloc = config.AllocPolicy(alloc)
		cfg.Link.ReqHeaderBytes, cfg.Link.RespHeaderBytes = reqHdr, respHdr

		if err := cfg.Validate(); err != nil {
			return // rejected is fine; panicking is not
		}

		// Validated, but possibly enormous: cap the machines we actually
		// build so the fuzzer probes logic, not the allocator.
		const maxCacheBytes = 64 << 20
		if cfg.TotalSMs() > 256 || cfg.TotalPartitions() > 64 || cfg.WarpsPerSM > 1024 ||
			cfg.L1.SizeBytes > maxCacheBytes || cfg.L15.SizeBytes > maxCacheBytes ||
			cfg.L2.SizeBytes > maxCacheBytes || cfg.PageBytes > 16<<20 {
			t.Skip("validated but too large to build under fuzzing")
		}

		m, err := core.New(cfg)
		if err != nil {
			t.Fatalf("Validate accepted the config but core.New rejected it: %v", err)
		}
		// Audited bounded run: construction succeeding is not enough — the
		// routing, translation and scheduling paths panic lazily. The event
		// budget bounds pathological-but-valid geometries (e.g. bandwidths
		// so small every transfer takes eons of simulated time).
		_, err = m.RunWith(fuzzSpec(cfg), core.RunOptions{
			Audit:      true,
			MaxEvents:  200_000,
			CheckEvery: 256,
		})
		if err != nil {
			var se *core.SimError
			if !errors.As(err, &se) {
				t.Fatalf("run failed with a non-SimError: %v", err)
			}
			if se.Kind == core.KindInvariant {
				t.Fatalf("validated config broke a conservation law: %v", err)
			}
		}
	})
}
