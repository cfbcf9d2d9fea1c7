package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmgpu/internal/engine"
	"mcmgpu/internal/metrics"
)

// genStream writes a synthetic multi-run metrics stream: several
// (config, workload) runs, multiple kernels, resources across kinds and
// GPMs, cache counters, and irregular utilization — enough variety to
// exercise every group dimension.
func genStream(t testing.TB, path string, csv bool, runs, ticks int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(77))
	rec := metrics.NewRecorder(f, 256, csv)
	for r := 0; r < runs; r++ {
		cfg := fmt.Sprintf("cfg-%d", r%3)
		wl := fmt.Sprintf("wl \"q\" %d", r%2)
		rec.Begin(cfg, wl)
		var probes []*engine.Resource
		var caches []*genCache
		for g := 0; g < 2; g++ {
			for _, kind := range []string{"link", "xbar", "dram"} {
				res := newResource(fmt.Sprintf("%s-%d", kind, g), float64(1+rng.Intn(4)))
				rec.AddResource(kind, g, res.Name(), res)
				probes = append(probes, res)
			}
			cache := &genCache{}
			rec.AddCaches("l2", g, []metrics.CacheCounters{cache})
			caches = append(caches, cache)
		}
		live := rng.Intn(100)
		rec.SetStateProbe(func() metrics.State { return metrics.State{LiveCTAs: live} })
		now := engine.Cycle(0)
		events := uint64(0)
		for i := 0; i < ticks; i++ {
			now += 256
			events += uint64(rng.Intn(5000))
			p := probes[rng.Intn(len(probes))]
			p.Reserve(now, uint64(rng.Intn(400)))
			c := caches[rng.Intn(len(caches))]
			hits := uint64(rng.Intn(20))
			c.acc += hits + uint64(rng.Intn(30))
			c.hits += hits
			rec.Tick(now, events)
			if i > 0 && i%7 == 0 {
				rec.KernelBoundary(now, events)
			}
		}
		rec.Finish(now+300, events+10)
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

type genCache struct{ hits, acc uint64 }

func (c *genCache) Hits() uint64     { return c.hits }
func (c *genCache) Accesses() uint64 { return c.acc }

// runStat invokes the CLI in-process, capturing stdout.
func runStat(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("mcmstat %v: %v", args, err)
	}
	return buf.Bytes()
}

func mustEqual(t *testing.T, a, b []byte, what string) {
	t.Helper()
	if !bytes.Equal(a, b) {
		al := strings.Split(string(a), "\n")
		bl := strings.Split(string(b), "\n")
		for i := range al {
			if i >= len(bl) || al[i] != bl[i] {
				t.Fatalf("%s: outputs diverge at line %d:\n  a: %s\n  b: %s", what, i+1, al[i], safeIdx(bl, i))
			}
		}
		t.Fatalf("%s: outputs differ in length: %d vs %d lines", what, len(al), len(bl))
	}
}

func safeIdx(ls []string, i int) string {
	if i < len(ls) {
		return ls[i]
	}
	return "<missing>"
}

// TestFastMatchesNaive: the production path equals the reference
// implementation byte for byte, on both formats and several groupings.
func TestFastMatchesNaive(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	cs := filepath.Join(dir, "s.csv")
	genStream(t, nd, false, 4, 60)
	genStream(t, cs, true, 4, 60)
	groups := []string{"kind", "config,workload,kernel,gpm,kind,name", "name,gpm", "workload"}
	for _, in := range []string{nd, cs} {
		for _, g := range groups {
			fast := runStat(t, "-group", g, in)
			naive := runStat(t, "-group", g, "-naive", in)
			mustEqual(t, fast, naive, fmt.Sprintf("%s group=%s", filepath.Base(in), g))
			if bytes.Count(fast, []byte("\n")) < 2 {
				t.Fatalf("suspiciously small output for group=%s:\n%s", g, fast)
			}
		}
	}
}

// TestWorkerCountInvariance: -j does not change a single output byte.
func TestWorkerCountInvariance(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	genStream(t, nd, false, 5, 80)
	base := runStat(t, "-group", "config,kind,name", "-j", "1", nd)
	for _, j := range []string{"2", "3", "8"} {
		got := runStat(t, "-group", "config,kind,name", "-j", j, nd)
		mustEqual(t, base, got, "-j "+j)
	}
}

// TestSpillEquality: a tiny -mem forces the external sort-merge path, whose
// output must equal the all-in-memory run byte for byte. The bench report
// proves spilling actually happened.
func TestSpillEquality(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	genStream(t, nd, false, 6, 200)
	benchPath := filepath.Join(dir, "bench.json")
	inMem := runStat(t, "-group", "config,workload,kernel,gpm,kind,name", nd)
	spilled := runStat(t, "-group", "config,workload,kernel,gpm,kind,name",
		"-mem", "64k", "-tmp", dir, "-bench-json", benchPath, nd)
	mustEqual(t, inMem, spilled, "spill vs in-memory")

	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Rows        int64   `json:"rows"`
		RowsPerSec  float64 `json:"rows_per_sec"`
		SpilledRuns int     `json:"spilled_runs"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("bench json %s: %v", raw, err)
	}
	if report.SpilledRuns == 0 {
		t.Fatal("spill test vacuous: -mem 64k did not trigger the external sort")
	}
	if report.Rows == 0 || report.RowsPerSec <= 0 {
		t.Fatalf("bench report incomplete: %s", raw)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "extsort-*")); len(left) != 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}

// TestSpillExactMode: -exact survives spilling with identical output too.
func TestSpillExactMode(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	genStream(t, nd, false, 4, 150)
	inMem := runStat(t, "-group", "kind,name", "-exact", nd)
	spilled := runStat(t, "-group", "kind,name", "-exact", "-mem", "64k", "-tmp", dir, nd)
	mustEqual(t, inMem, spilled, "exact spill vs in-memory")
	naive := runStat(t, "-group", "kind,name", "-exact", "-naive", nd)
	mustEqual(t, inMem, naive, "exact fast vs naive")
}

// TestGzipInput: a gzipped stream produces the same bytes as its plain
// twin (offset-derived tags survive compression).
func TestGzipInput(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	genStream(t, nd, false, 3, 60)
	raw, err := os.ReadFile(nd)
	if err != nil {
		t.Fatal(err)
	}
	gz := filepath.Join(dir, "s.ndjson.gz")
	gf, err := os.Create(gz)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(gf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	plain := runStat(t, "-group", "kind,gpm", nd)
	zipped := runStat(t, "-group", "kind,gpm", gz)
	mustEqual(t, plain, zipped, "gzip vs plain")
}

// TestMultiInput: several inputs aggregate together, and fast equals naive
// on the combined stream.
func TestMultiInput(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.ndjson")
	b := filepath.Join(dir, "b.csv")
	genStream(t, a, false, 2, 40)
	genStream(t, b, true, 2, 40)
	fast := runStat(t, "-group", "config,kind", a, b)
	naive := runStat(t, "-group", "config,kind", "-naive", a, b)
	mustEqual(t, fast, naive, "multi-input")
}

// TestRecordsFilter: kernel and both modes match naive and differ from
// sample-only.
func TestRecordsFilter(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	genStream(t, nd, false, 3, 60)
	sample := runStat(t, "-group", "kind", nd)
	for _, recs := range []string{"kernel", "both"} {
		fast := runStat(t, "-group", "kind", "-records", recs, nd)
		naive := runStat(t, "-group", "kind", "-records", recs, "-naive", nd)
		mustEqual(t, fast, naive, "-records "+recs)
		if bytes.Equal(fast, sample) {
			t.Fatalf("-records %s output identical to sample-only; filter inert", recs)
		}
	}
}

// TestP2Mode: the sequential P² estimator runs, is deterministic, and its
// estimates sit inside [min, max].
func TestP2Mode(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	genStream(t, nd, false, 3, 100)
	a := runStat(t, "-group", "kind", "-q", "p2", nd)
	b := runStat(t, "-group", "kind", "-q", "p2", nd)
	mustEqual(t, a, b, "p2 determinism")
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	if len(lines) < 2 {
		t.Fatalf("no p2 output rows:\n%s", a)
	}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		// kind,metric,n,min,mean,max,p95,p99,...
		var min, max, p95, p99 float64
		fmt.Sscanf(f[3], "%g", &min)
		fmt.Sscanf(f[5], "%g", &max)
		fmt.Sscanf(f[6], "%g", &p95)
		fmt.Sscanf(f[7], "%g", &p99)
		if p95 < min || p95 > max || p99 < min || p99 > max {
			t.Fatalf("p2 quantiles outside [min,max]: %s", line)
		}
	}
}

// TestP2MixedInputs: -q p2 over a mix of chunkable (plain regular file)
// and sequential (gzip) inputs must route everything through one
// sequential context — P² state cannot merge, so a split scan would
// silently drop one side's estimator state while still counting its rows.
func TestP2MixedInputs(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.ndjson")
	b := filepath.Join(dir, "b.ndjson")
	genStream(t, a, false, 2, 60)
	genStream(t, b, false, 3, 80)
	raw, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	bgz := filepath.Join(dir, "b.ndjson.gz")
	gf, err := os.Create(bgz)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(gf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	fast := runStat(t, "-group", "kind", "-q", "p2", a, bgz)
	naive := runStat(t, "-group", "kind", "-q", "p2", "-naive", a, bgz)
	mustEqual(t, fast, naive, "p2 mixed plain+gzip vs naive")
}

// TestLeadingBlankLineSniff: format auto-detection must look at the first
// non-empty line, so an NDJSON file with leading blank lines parses the
// same through the chunked fast path, the naive path, and its gzipped
// (Scanner-path) twin.
func TestLeadingBlankLineSniff(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	genStream(t, nd, false, 2, 40)
	raw, err := os.ReadFile(nd)
	if err != nil {
		t.Fatal(err)
	}
	blank := filepath.Join(dir, "blank.ndjson")
	if err := os.WriteFile(blank, append([]byte("\n\n"), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	fast := runStat(t, "-group", "kind,gpm", blank)
	naive := runStat(t, "-group", "kind,gpm", "-naive", blank)
	mustEqual(t, fast, naive, "leading-blank-line fast vs naive")
	gz := filepath.Join(dir, "blank.ndjson.gz")
	gf, err := os.Create(gz)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(gf)
	if _, err := zw.Write(append([]byte("\n\n"), raw...)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	zipped := runStat(t, "-group", "kind,gpm", gz)
	mustEqual(t, fast, zipped, "leading-blank-line plain vs gzip")
}

// TestP2CannotSpill: exceeding -mem under -q p2 is an error, not silent
// wrong output.
func TestP2CannotSpill(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	genStream(t, nd, false, 6, 200)
	err := run([]string{"-group", "config,workload,kernel,gpm,kind,name", "-q", "p2", "-mem", "64k", nd}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "cannot spill") {
		t.Fatalf("expected cannot-spill error, got %v", err)
	}
}

// TestOutputFile: -o writes the same bytes as stdout, and .gz compresses.
func TestOutputFile(t *testing.T) {
	dir := t.TempDir()
	nd := filepath.Join(dir, "s.ndjson")
	genStream(t, nd, false, 2, 40)
	want := runStat(t, "-group", "kind", nd)
	outGz := filepath.Join(dir, "out.csv.gz")
	runStat(t, "-group", "kind", "-o", outGz, nd)
	raw, err := os.ReadFile(outGz)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, want, got.Bytes(), "-o .gz vs stdout")
}

// TestBadInputs: flag and stream errors surface as errors.
func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(bad, []byte("{\"type\":\"sample\",oops\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-group", "bogus", bad},
		{"-records", "nope", bad},
		{"-q", "nope", bad},
		{"-exact", "-q", "p2", bad},
		{"-mem", "x", bad},
		{filepath.Join(dir, "missing.ndjson")},
		{bad},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) unexpectedly succeeded", args)
		}
	}
}

// newResource returns a resource initialized under a fixed name.
func newResource(name string, unitsPerCycle float64) *engine.Resource {
	r := new(engine.Resource)
	r.Init(name, -1, unitsPerCycle)
	return r
}
