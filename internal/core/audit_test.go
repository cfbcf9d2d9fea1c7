package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mcmgpu/internal/audit"
	"mcmgpu/internal/config"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/workload"
)

// boundaryAudit evaluates every boundary-phase invariant against the
// machine's current state and returns the violations found, building the
// auditor on demand. Unlike the in-run audits this does not require a
// kernel boundary: calling it on a machine stopped mid-kernel (say, by a
// MaxEvents budget) deliberately reports the undrained in-flight state,
// which is how these tests prove the drain invariants are not vacuous.
func (m *Machine) boundaryAudit() audit.Violations {
	if m.aud == nil {
		m.aud = m.newAuditor()
	}
	return m.aud.Run(audit.Boundary)
}

// auditConfigs covers the machine shapes whose conservation laws differ:
// the plain MCM (ring, interleave), the optimized MCM (L1.5 remote-only,
// first touch, distributed scheduling), a monolithic GPU (no NoC at all),
// and the board-level system (link energy in the board domain).
func auditConfigs() map[string]*config.Config {
	return map[string]*config.Config{
		"baseline-mcm": config.BaselineMCM(),
		"optimized":    config.OptimizedMCM(),
		"monolithic":   config.MustMonolithic(64),
		"multi-gpu":    config.MultiGPUOptimized(),
	}
}

// TestAuditedRunFindsNoViolations is the auditor's soundness contract: on a
// healthy machine every conservation law holds, for every machine shape.
func TestAuditedRunFindsNoViolations(t *testing.T) {
	for name, cfg := range auditConfigs() {
		if _, err := runWith(t, cfg, probeSpec(nil), RunOptions{Audit: true}); err != nil {
			t.Errorf("%s: audited run reported violations: %v", name, err)
		}
	}
}

// TestAuditedRunIsByteIdentical pins the observe-only contract: enabling the
// auditor must not change a single field of the result.
func TestAuditedRunIsByteIdentical(t *testing.T) {
	for name, cfg := range auditConfigs() {
		spec := probeSpec(nil)
		plain := mustRun(t, cfg.Clone(), spec)
		audited, err := runWith(t, cfg, spec, RunOptions{Audit: true})
		if err != nil {
			t.Fatalf("%s: audited run failed: %v", name, err)
		}
		if !reflect.DeepEqual(plain, audited) {
			t.Errorf("%s: audited run diverged from unaudited run:\nplain:   %+v\naudited: %+v",
				name, plain, audited)
		}
	}
}

// wantViolation asserts err is a KindInvariant *SimError whose cause chain
// contains a violation of the named invariant.
func wantViolation(t *testing.T, err error, invariant string) {
	t.Helper()
	se := wantSimError(t, err, KindInvariant)
	var vs audit.Violations
	if !errors.As(se, &vs) {
		t.Fatalf("invariant SimError cause is %T, want audit.Violations", se.Cause)
	}
	var v *audit.Violation
	if !errors.As(se, &v) {
		t.Fatalf("no *audit.Violation in the chain of %v", se)
	}
	for _, got := range vs {
		if got.Invariant == invariant {
			return
		}
	}
	t.Fatalf("no %q violation among %v", invariant, vs)
}

// TestCorruptCounterCaught proves, target by target, that the smallest
// possible perturbation of each audited statistic is caught by the invariant
// engineered to watch it. This is the auditor's liveness contract: a check
// that never fires proves nothing.
func TestCorruptCounterCaught(t *testing.T) {
	cases := []struct {
		target    string
		invariant string
	}{
		{faultinject.TargetLineReads, "l1-flow"},
		{faultinject.TargetLineWrites, "l2-flow"},
		{faultinject.TargetEnergyLink, "energy-bytes"},
		{faultinject.TargetEnergyDRAM, "energy-bytes"},
		{faultinject.TargetInFlight, "warp-drain"},
		{faultinject.TargetClamp, "clamp-guard"},
		{faultinject.TargetL2Bank, "l2-bank-flow"},
	}
	for _, tc := range cases {
		t.Run(tc.target, func(t *testing.T) {
			_, err := runWith(t, config.BaselineMCM(), probeSpec(nil), RunOptions{
				Audit: true,
				Fault: faultinject.Plan{
					Kind:    faultinject.CorruptCounter,
					Target:  tc.target,
					AtEvent: 5_000,
				},
				// Backstop: the clamp target keeps the queue alive forever,
				// so a missed catch must fail as max-events, not hang.
				MaxEvents:  20_000_000,
				CheckEvery: 64,
			})
			wantViolation(t, err, tc.invariant)
		})
	}
}

// TestAuditForcedByEnv proves MCMGPU_AUDIT=1 arms the auditor without
// RunOptions.Audit: the same corruption that passes silently by default is
// caught when the environment forces auditing.
func TestAuditForcedByEnv(t *testing.T) {
	fault := faultinject.Plan{
		Kind:    faultinject.CorruptCounter,
		Target:  faultinject.TargetLineReads,
		AtEvent: 5_000,
	}
	// Pin the env off for the control leg: under CI's MCMGPU_AUDIT=1 pass
	// the "unaudited" run would otherwise legitimately catch the fault.
	t.Setenv(audit.EnvVar, "")
	if _, err := runWith(t, config.BaselineMCM(), probeSpec(nil),
		RunOptions{Fault: fault, CheckEvery: 64}); err != nil {
		t.Fatalf("unaudited run surfaced the corruption anyway: %v", err)
	}
	t.Setenv(audit.EnvVar, "1")
	_, err := runWith(t, config.BaselineMCM(), probeSpec(nil),
		RunOptions{Fault: fault, CheckEvery: 64})
	wantViolation(t, err, "l1-flow")
}

// TestAuditReportsUndrainedMidKernel guards the drain invariants against
// vacuity: a machine stopped mid-kernel by an event budget really is in a
// "bad" state by boundary standards, and boundaryAudit must say so rather
// than report a clean bill.
func TestAuditReportsUndrainedMidKernel(t *testing.T) {
	m, err := New(config.BaselineMCM())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunWith(probeSpec(nil), RunOptions{MaxEvents: 10_000, CheckEvery: 64})
	wantSimError(t, err, KindMaxEvents)
	vs := m.boundaryAudit()
	if len(vs) == 0 {
		t.Fatal("boundary audit of a mid-kernel machine found nothing undrained")
	}
	found := false
	for _, v := range vs {
		if v.Invariant == "warp-drain" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mid-kernel audit reported %v, want a warp-drain violation", vs)
	}
}

// TestAuditCleanMachine asserts boundaryAudit reports nothing on a machine
// whose records RunWith has just built, before the first kernel (nothing
// launched, nothing counted): on fresh storage, and on the storage a
// drained run of another geometry, with dirty L2 lines, handed back.
func TestAuditCleanMachine(t *testing.T) {
	emptySpares()
	fresh := assembled(t, config.BaselineMCM(), probeSpec(nil))
	mustRun(t, config.OptimizedMCM(), probeSpec(func(s *workload.Spec) { s.WriteFraction = 0.4 }))
	prev, _ := topSpare()
	recycled := assembled(t, config.BaselineMCM(), probeSpec(nil))
	if recycled.sim != prev.sim {
		t.Fatal("the second machine did not take the storage the drained run handed back")
	}
	for name, m := range map[string]*Machine{"fresh": fresh, "recycled": recycled} {
		if vs := m.boundaryAudit(); len(vs) != 0 {
			t.Fatalf("pristine machine on %s storage audits dirty: %v", name, vs)
		}
	}
}

// TestAuditViolationErrorText pins the rendered diagnosis: the stable
// "sim error" prefix, the invariant kind, and the violated law's name all
// appear, which is what the CI fault smoke greps for.
func TestAuditViolationErrorText(t *testing.T) {
	_, err := runWith(t, config.BaselineMCM(), probeSpec(nil), RunOptions{
		Audit: true,
		Fault: faultinject.Plan{
			Kind:    faultinject.CorruptCounter,
			Target:  faultinject.TargetLineReads,
			AtEvent: 5_000,
		},
		CheckEvery: 64,
	})
	se := wantSimError(t, err, KindInvariant)
	for _, want := range []string{"sim error", "invariant", "l1-flow"} {
		if !strings.Contains(se.Error(), want) {
			t.Errorf("error %q does not mention %q", se.Error(), want)
		}
	}
}

// TestAuditKernelIterations asserts the boundary audit runs per kernel, not
// only at end of run: a corruption injected during the first kernel of a
// multi-kernel run is caught before the second kernel starts.
func TestAuditKernelIterations(t *testing.T) {
	spec := probeSpec(func(s *workload.Spec) { s.KernelIters = 3 })
	firstKernel := mustRun(t, config.BaselineMCM(),
		probeSpec(func(s *workload.Spec) { s.KernelIters = 1 }))
	_, err := runWith(t, config.BaselineMCM(), spec, RunOptions{
		Audit: true,
		Fault: faultinject.Plan{
			Kind:    faultinject.CorruptCounter,
			Target:  faultinject.TargetLineWrites,
			AtEvent: 5_000,
		},
		CheckEvery: 64,
	})
	se := wantSimError(t, err, KindInvariant)
	// l2-flow is boundary-only, so the catch lands at the first kernel's
	// boundary — well before a 3-kernel run would otherwise end.
	if uint64(se.Clock) > firstKernel.Cycles+KernelGapCycles {
		t.Errorf("violation surfaced at cycle %d, after the first kernel boundary (~%d)",
			se.Clock, firstKernel.Cycles)
	}
	wantViolation(t, err, "l2-flow")
}
