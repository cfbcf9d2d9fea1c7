package runner

import (
	"reflect"
	"testing"

	"mcmgpu/internal/analytic"
	"mcmgpu/internal/config"
	"mcmgpu/internal/workload"
)

// TestEstimatesMatchDirect: Runner.Estimates is the batched form of one
// estimator per job — same predictions, job order preserved.
func TestEstimatesMatchDirect(t *testing.T) {
	jobs := testJobs(t)
	got, err := (&Runner{}).Estimates(jobs)
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
	r := &Runner{}
	got, err := r.Estimates(jobs)
	var jerrs JobErrors
	if !asJobErrors(err, &jerrs) || len(jerrs) != 1 || jerrs[0].Index != 1 {
		t.Fatalf("err = %v, want one JobError at index 1", err)
	}
	if got[0] == nil || got[1] != nil || got[2] == nil {
		t.Fatalf("slots = [%v %v %v], want [est nil est]", got[0], got[1], got[2])
	}
	// The error is deterministic: a second pass fails the same way.
	if _, err := r.Estimates(jobs[1:2]); err == nil {
		t.Fatal("second pass: want error, got nil")
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
