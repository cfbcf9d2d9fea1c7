package runner

import (
	"reflect"
	"strings"
	"testing"

	"mcmgpu/internal/analytic"
	"mcmgpu/internal/config"
	"mcmgpu/internal/workload"
)

// TestEstimatesMatchDirect: Runner.Estimates is the batched form of one
// estimator per job — same predictions, job order preserved, cache
// irrelevant to the values.
func TestEstimatesMatchDirect(t *testing.T) {
	jobs := testJobs(t)
	for _, cache := range []*EstCache{nil, NewEstCache()} {
		r := &Runner{EstCache: cache}
		got, err := r.Estimates(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(jobs) {
			t.Fatalf("got %d estimates for %d jobs", len(got), len(jobs))
		}
		for i, j := range jobs {
			e, err := analytic.NewEstimator(j.Config)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Estimate(j.Spec, j.Scale)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] == nil || !reflect.DeepEqual(*got[i], *want) {
				t.Errorf("job %d (%s on %s): batched estimate diverges from direct",
					i, j.Spec.Name, j.Config.Name)
			}
		}
	}
}

// TestEstCacheMemoizes: the cold pass stores one entry per job, a second
// pass evaluates nothing, and the returned estimates are copies — mutating
// one never contaminates the cache.
func TestEstCacheMemoizes(t *testing.T) {
	jobs := testJobs(t)
	cache := NewEstCache()
	r := &Runner{EstCache: cache}
	first, err := r.Estimates(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.entries) != len(jobs) {
		t.Fatalf("cold pass cached %d entries, want %d", len(cache.entries), len(jobs))
	}
	first[0].IPC = -1 // must not reach the cache
	second, err := r.Estimates(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.entries) != len(jobs) {
		t.Fatalf("warm pass grew the cache to %d entries, want %d", len(cache.entries), len(jobs))
	}
	for _, j := range jobs {
		cache.do(j.estKey(), func() (*analytic.Estimate, error) {
			t.Fatalf("%s on %s re-evaluated after the cold pass", j.Spec.Name, j.Config.Name)
			return nil, nil
		})
	}
	if second[0].IPC <= 0 {
		t.Fatal("cached estimate was contaminated by caller mutation")
	}
}

// TestEstKeyDisjointFromSimKey: the estimate key is the simulation key under
// an "est|" prefix, so the two cache namespaces can never collide.
func TestEstKeyDisjointFromSimKey(t *testing.T) {
	j := Job{Config: config.BaselineMCM(), Spec: mustSpec(t, "GEMM"), Scale: 0.05}
	ek, sk := j.estKey(), j.key()
	if !strings.HasPrefix(ek, "est|") || strings.TrimPrefix(ek, "est|") != sk {
		t.Fatalf("estKey %q does not wrap key %q", ek, sk)
	}
}

// TestEstimatesBadJob: an invalid job leaves a nil slot and a JobError,
// without aborting the rest of the list.
func TestEstimatesBadJob(t *testing.T) {
	bad := config.BaselineMCM()
	bad.Name = "broken"
	bad.Modules = 0
	jobs := []Job{
		{Config: config.BaselineMCM(), Spec: mustSpec(t, "GEMM"), Scale: 0.05},
		{Config: bad, Spec: mustSpec(t, "GEMM"), Scale: 0.05},
		{Config: config.OptimizedMCM(), Spec: mustSpec(t, "CFD"), Scale: 0.05},
	}
	r := &Runner{EstCache: NewEstCache()}
	got, err := r.Estimates(jobs)
	var jerrs JobErrors
	if !asJobErrors(err, &jerrs) || len(jerrs) != 1 || jerrs[0].Index != 1 {
		t.Fatalf("err = %v, want one JobError at index 1", err)
	}
	if got[0] == nil || got[1] != nil || got[2] == nil {
		t.Fatalf("slots = [%v %v %v], want [est nil est]", got[0], got[1], got[2])
	}
	// The error is deterministic, so it memoizes like a result does.
	if _, err := r.Estimates(jobs[1:2]); err == nil {
		t.Fatal("memoized error pass: want error, got nil")
	}
}

func asJobErrors(err error, out *JobErrors) bool {
	je, ok := err.(JobErrors)
	if ok {
		*out = je
	}
	return ok
}

// TestEstimateScaleDefaults: Scale <= 0 means full scale, matching Job.run.
func TestEstimateScaleDefaults(t *testing.T) {
	spec := mustSpec(t, "NW")
	got, err := (&Runner{}).Estimates([]Job{
		{Config: config.BaselineMCM(), Spec: spec},
		{Config: config.BaselineMCM(), Spec: spec, Scale: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got[0], *got[1]) {
		t.Fatal("Scale 0 and Scale 1 estimates differ")
	}
	var w workload.Spec // zero spec is invalid: Estimates must error, not panic
	if _, err := (&Runner{}).Estimates([]Job{{Config: config.BaselineMCM(), Spec: &w}}); err == nil {
		t.Fatal("zero spec: want error")
	}
}
