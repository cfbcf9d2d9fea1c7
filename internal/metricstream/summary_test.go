package metricstream

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"strings"
	"testing"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/metrics"
	"mcmgpu/internal/report"
	"mcmgpu/internal/workload"
)

// summaryStream records a canned two-kernel run. GPM 0 has two links: one
// saturated over [0, 4096) and idle until the kernel boundary at 8192, then
// busy for a 100-cycle burst in the second kernel, and one busy for 512
// cycles at the start. GPM 1's link stays idle. DRAM moves 1024 bytes in
// the first interval.
func summaryStream(t *testing.T, csv bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := metrics.NewRecorder(&buf, 4096, csv)
	link := newResource("ring-cw-0", 1)
	other := newResource("ring-ccw-0", 1)
	idle := newResource("ring-cw-1", 1)
	dram := newResource("dram-0", 2)
	rec.Begin("cfg", "wl")
	rec.AddResource("link", 0, link.Name(), link)
	rec.AddResource("link", 0, other.Name(), other)
	rec.AddResource("dram", 0, dram.Name(), dram)
	rec.AddResource("link", 1, idle.Name(), idle)
	rec.AddCaches("l1", 0, []metrics.CacheCounters{&tickCache{}})
	link.Reserve(0, 4096)
	other.Reserve(0, 512)
	dram.Reserve(0, 1024)
	rec.Tick(4096, 1000)
	rec.KernelBoundary(8192, 2000)
	link.Reserve(8192, 100)
	rec.Tick(8192+4096, 2500)
	rec.KernelBoundary(8192+4096, 3000)
	rec.Finish(8192+4096, 3000)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func summary(t *testing.T, stream []byte) []*report.Table {
	t.Helper()
	tables, err := Summary(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestSummaryTables: the canned run summarizes to one link row per GPM, in
// registration order, and a three-interval DRAM timeline, and its CSV and NDJSON streams give the
// same tables.
func TestSummaryTables(t *testing.T) {
	tables := summary(t, summaryStream(t, false))
	if len(tables) != 2 {
		t.Fatalf("got %d summary tables, want 2 (link util + DRAM timeline)", len(tables))
	}
	lu := tables[0]
	if lu.Title != "Link utilization by GPM — wl on cfg" {
		t.Errorf("link table title %q", lu.Title)
	}
	// GPM 0's busiest link per sample: the saturated first interval (1),
	// the idle rest of kernel 0 (0), and the 100-cycle burst (100/4096);
	// p95 interpolates between the top two.
	want := [][]string{{"0", "1.000", "0.341", "0.902"}, {"1", "0.000", "0.000", "0.000"}}
	if !reflect.DeepEqual(lu.Rows, want) {
		t.Errorf("link util rows = %v, want %v", lu.Rows, want)
	}
	dt := tables[1]
	want = [][]string{{"0-4096", "0.250"}, {"4096-8192", "0.000"}, {"8192-12288", "0.000"}}
	if !reflect.DeepEqual(dt.Rows, want) {
		t.Errorf("DRAM timeline rows = %v, want %v", dt.Rows, want)
	}
	if csv := summary(t, summaryStream(t, true)); !reflect.DeepEqual(csv, tables) {
		t.Errorf("CSV stream summarizes differently:\n%v\nNDJSON:\n%v", csv, tables)
	}
}

// TestSummaryEdges: a stream without samples has no tables, a gzipped
// stream reads like a plain one, and a malformed line is an error.
func TestSummaryEdges(t *testing.T) {
	if tables := summary(t, nil); len(tables) != 0 {
		t.Errorf("empty stream gave %d tables", len(tables))
	}
	plain := summaryStream(t, false)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(plain)
	zw.Close()
	if got, want := summary(t, gz.Bytes()), summary(t, plain); !reflect.DeepEqual(got, want) {
		t.Errorf("gzipped stream summarizes differently")
	}
	if _, err := Summary(strings.NewReader("{\"type\":\"sample\",\n")); err == nil {
		t.Error("malformed stream summarized without error")
	}
}

// TestSummaryRealRun: a simulated four-GPM run has one link row per GPM,
// and the monolithic GPU, which has no inter-GPM links, only the DRAM
// timeline. CSV and NDJSON agree on both.
func TestSummaryRealRun(t *testing.T) {
	spec, err := workload.ByName("Stream")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.05)
	for _, c := range []struct {
		cfg    *config.Config
		tables int
		gpms   int
	}{
		{config.BaselineMCM(), 2, 4},
		{config.UnbuildableMonolithic(), 1, 0},
	} {
		var got [2][]*report.Table
		for i, csv := range []bool{false, true} {
			var buf bytes.Buffer
			m, err := core.New(c.cfg.Clone())
			if err != nil {
				t.Fatal(err)
			}
			rec := metrics.NewRecorder(&buf, 256, csv)
			if _, err := m.RunWith(spec, core.RunOptions{Metrics: rec}); err != nil {
				t.Fatal(err)
			}
			got[i] = summary(t, buf.Bytes())
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: CSV and NDJSON summaries differ", c.cfg.Name)
		}
		if len(got[0]) != c.tables {
			t.Fatalf("%s: %d tables, want %d", c.cfg.Name, len(got[0]), c.tables)
		}
		if c.gpms > 0 && len(got[0][0].Rows) != c.gpms {
			t.Errorf("%s: link table has %d rows, want %d", c.cfg.Name, len(got[0][0].Rows), c.gpms)
		}
		if dt := got[0][len(got[0])-1]; len(dt.Rows) == 0 || len(dt.Rows) > 16 {
			t.Errorf("%s: DRAM timeline has %d rows, want 1..16", c.cfg.Name, len(dt.Rows))
		}
	}
}
