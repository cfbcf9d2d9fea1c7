package audit

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

func TestRunSelectsByPhase(t *testing.T) {
	var a Auditor
	a.Register("cheap", Periodic|Boundary, func(r *Reporter) { r.Reportf("cheap", "x", "always") })
	a.Register("deep", Boundary, func(r *Reporter) { r.Reportf("deep", "y", "always") })

	per := a.Run(Periodic)
	if len(per) != 1 || per[0].Invariant != "cheap" {
		t.Fatalf("periodic pass ran %v, want only the cheap check", per)
	}
	bnd := a.Run(Boundary)
	if len(bnd) != 2 {
		t.Fatalf("boundary pass found %d violations, want both checks' 2", len(bnd))
	}
	// Registration order is preserved.
	if bnd[0].Invariant != "cheap" || bnd[1].Invariant != "deep" {
		t.Fatalf("boundary pass out of registration order: %v", bnd)
	}
}

func TestViolationsErrAndUnwrap(t *testing.T) {
	var a Auditor
	a.Register("ok", Boundary, func(*Reporter) {})
	if err := a.Run(Boundary).Err(); err != nil {
		t.Fatalf("clean pass returned non-nil error %v", err)
	}

	a.Register("bad", Boundary, func(r *Reporter) { r.Reportf("law", "comp", "got %d want %d", 3, 4) })
	err := a.Run(Boundary).Err()
	if err == nil {
		t.Fatal("violating pass returned nil error")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %T does not unwrap to *Violation", err)
	}
	if v.Invariant != "law" || v.Component != "comp" || v.Detail != "got 3 want 4" {
		t.Fatalf("violation fields %+v", v)
	}
	// Wrapping (as SimError/JobError do) must keep errors.As working.
	wrapped := fmt.Errorf("outer: %w", err)
	v = nil
	if !errors.As(wrapped, &v) || v.Invariant != "law" {
		t.Fatalf("wrapped error lost the violation: %v", wrapped)
	}
}

func TestViolationsErrorSummary(t *testing.T) {
	vs := Violations{
		{Invariant: "a", Component: "c1", Detail: "d1"},
		{Invariant: "b", Component: "c2", Detail: "d2"},
	}
	got := vs.Error()
	want := "invariant a violated at c1: d1 (and 1 more violations)"
	if got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestEqualHelper(t *testing.T) {
	var r Reporter
	if !Equal(&r, "law", "comp", "bytes", uint64(5), uint64(5)) {
		t.Fatal("Equal reported a violation for equal values")
	}
	if Equal(&r, "law", "comp", "bytes", uint64(5), uint64(6)) {
		t.Fatal("Equal missed a mismatch")
	}
	vs := r.vs
	if len(vs) != 1 || vs[0].Detail != "bytes = 5, want 6" {
		t.Fatalf("violations = %v", vs)
	}
}

func TestClampBudget(t *testing.T) {
	cases := []struct {
		events, want uint64
	}{
		{0, ClampAllowance},
		{999_999, ClampAllowance + 99},    // just under a million: 99 from the fractional term
		{1_000_000, ClampAllowance + 100}, // exactly one million
		{10_000_000, ClampAllowance + 1000},
	}
	for _, c := range cases {
		if got := ClampBudget(c.events); got != c.want {
			t.Errorf("ClampBudget(%d) = %d, want %d", c.events, got, c.want)
		}
	}
}

func TestForced(t *testing.T) {
	for val, want := range map[string]bool{"": false, "0": false, "off": false, "1": true, "true": true, "yes": true, "on": true} {
		t.Setenv(EnvVar, val)
		if val == "" {
			os.Unsetenv(EnvVar)
		}
		if got := Forced(); got != want {
			t.Errorf("Forced() with %s=%q = %v, want %v", EnvVar, val, got, want)
		}
	}
}
