package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {192, 0.9}, {10000, 0.9},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) and statistics.median, whose spread the
// benchmark's acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs           []float64
		q1, med, q3  float64
		spreadWanted float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{10, 10, 10, 11, 9}, 9.5, 10, 10.5, 0.1},
	} {
		q1, med, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
		if got := spread(c.xs); !near(got, c.spreadWanted) {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.spreadWanted)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestOpenLoopTimesFromDue checks that a call which waits for an
// in-flight slot starts late, and that both its lag and its latency are
// counted from its due time rather than from when it was sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const work = 30 * time.Millisecond
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	outs, wall := openLoop(dues, 1, func(i int, due, sent time.Time) outcome {
		time.Sleep(work)
		return outcome{}
	})
	if wall < 3*work {
		t.Fatalf("one slot ran three %v calls in %v", work, wall)
	}
	if outs[0].lag > work/2 {
		t.Errorf("first call lag %v, want ~0", outs[0].lag)
	}
	for i := 1; i < len(outs); i++ {
		o := outs[i]
		// Call i waits for the i calls before it.
		if minLag := time.Duration(i)*work - dues[i]; o.lag < minLag {
			t.Errorf("call %d: lag %v, want >= %v", i, o.lag, minLag)
		}
		if o.lat < o.lag+work {
			t.Errorf("call %d: latency %v does not include its lag %v plus its %v of work", i, o.lat, o.lag, work)
		}
	}
	// With free slots nothing waits.
	outs, _ = openLoop(dues, len(dues), func(i int, due, sent time.Time) outcome {
		time.Sleep(work)
		return outcome{}
	})
	for i, o := range outs {
		if o.lag > work/2 {
			t.Errorf("unloaded call %d: lag %v", i, o.lag)
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		// Two overlapping children cover [10, 60]; a third runs past the
		// parent's end and counts only up to it.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "b.inner", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
}

const topOutput = `File: bench
Type: cpu
Time: Oct 16, 2026 at 10:00am (UTC)
Duration: 10.20s, Total samples = 4s (39.22%)
Showing nodes accounting for 4s, 100% of 4s total
      flat  flat%   sum%        cum   cum%
     1.50s 37.50% 37.50%      1.60s 40.00%  mcmgpu/internal/engine.(*Sim).pop
     900ms 22.50% 60.00%      900ms 22.50%  mcmgpu/internal/cache.(*Cache).Access
     500ms 12.50% 72.50%      2.50s 62.50%  mcmgpu/internal/core.(*warpCtx).mem
     400ms 10.00% 82.50%      400ms 10.00%  runtime.mallocgc
     300ms  7.50% 90.00%      300ms  7.50%  mcmgpu/internal/runstore/client.(*Client).do
     200ms  5.00% 95.00%      200ms  5.00%  encoding/json.(*decodeState).object
     100ms  2.50% 97.50%      100ms  2.50%  slices.sortCmpFunc[go.shape.struct { mcmgpu/internal/x.a int }]
     100ms  2.50%   100%      100ms  2.50%  internal/runtime/atomic.(*Uint32).Load
         0     0%   100%      3.90s 97.50%  main.main.func1
`

func TestParseTopIntoLayers(t *testing.T) {
	shares, total, err := sharesFromTop(strings.NewReader(topOutput))
	if err != nil {
		t.Fatal(err)
	}
	if total != 4*time.Second {
		t.Fatalf("flat total %v, want 4s", total)
	}
	want := map[string]float64{"engine": 37.5, "cache": 22.5, "core": 12.5, "runtime": 12.5,
		"runstore": 7.5, "json": 5, "other": 2.5}
	for l, pct := range want {
		if !near(shares[l], pct) {
			t.Errorf("%s share %.2f%%, want %.2f%%", l, shares[l], pct)
		}
	}
	if _, _, err := sharesFromTop(strings.NewReader("no table here\n")); err == nil {
		t.Error("accepted pprof output without a flat/cum table")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mcmgpu/internal/engine.(*Sim).pop":             "mcmgpu/internal/engine",
		"mcmgpu/internal/runstore/client.(*Pool).Run":   "mcmgpu/internal/runstore/client",
		"runtime.mallocgc":                              "runtime",
		"main.runSuite.func1":                           "main",
		"slices.sortCmpFunc[go.shape.struct { a/b.c }]": "slices",
		"net/http.(*conn).serve":                        "net/http",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
