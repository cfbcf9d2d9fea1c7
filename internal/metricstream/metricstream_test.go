package metricstream

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmgpu/internal/engine"
	"mcmgpu/internal/metrics"
)

// refResource etc. mirror the on-wire JSON shapes; encoding/json over these
// is the reference the allocation-free parser is compared against.
type refResource struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	GPM   int     `json:"gpm"`
	Busy  float64 `json:"busy"`
	Units uint64  `json:"units"`
	Util  float64 `json:"util"`
}

type refCache struct {
	Level  string `json:"level"`
	GPM    int    `json:"gpm"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

type refRecord struct {
	Type      string        `json:"type"`
	Config    string        `json:"config"`
	Workload  string        `json:"workload"`
	Seq       int           `json:"seq"`
	Kernel    int           `json:"kernel"`
	Start     uint64        `json:"start"`
	End       uint64        `json:"end"`
	Events    uint64        `json:"events"`
	LiveCTAs  int           `json:"liveCTAs"`
	Loads     int           `json:"loads"`
	Stores    int           `json:"stores"`
	Resources []refResource `json:"resources"`
	Caches    []refCache    `json:"caches"`
}

type tickCache struct{ hits, acc uint64 }

func (f *tickCache) Hits() uint64     { return f.hits }
func (f *tickCache) Accesses() uint64 { return f.acc }

// driveStream produces a stream exercising both record types, fractional
// floats, CSV quoting, and JSON escaping. Newlines are deliberately absent
// from names: CSV streams are line-oriented (DESIGN.md §9).
func driveStream(w io.Writer, csv bool) error {
	rec := metrics.NewRecorder(w, 4096, csv)
	link := newResource("link", 3)
	dram := newResource(`dram,0 "x"`, 7)
	cache := &tickCache{}
	rec.Begin(`cfg,with "quotes" <&>`, `wl tab\there`)
	rec.AddResource("link", 0, link.Name(), link)
	rec.AddResource("dram", 1, dram.Name(), dram)
	rec.AddCaches("l2", 0, []metrics.CacheCounters{cache})
	rec.SetStateProbe(func() metrics.State { return metrics.State{LiveCTAs: 5, InFlightLoads: 2, InFlightStores: 1} })
	link.Reserve(0, 1000)
	cache.acc, cache.hits = 30, 10
	rec.Tick(4096, 100)
	dram.Reserve(4100, 333)
	cache.acc += 7
	rec.Tick(8192, 250)
	rec.KernelBoundary(8192, 250)
	link.Reserve(9000, 50)
	rec.Tick(12288, 400)
	rec.Finish(13000, 500)
	return rec.Err()
}

// TestNDJSONRoundTrip checks every record of a real NDJSON stream against
// encoding/json field by field — both record shapes, escaped strings,
// fractional values.
func TestNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := driveStream(&buf, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("expected several records, got %d", len(lines))
	}
	var rec Record
	sawSample, sawKernel := false, false
	for _, line := range lines {
		var want refRecord
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatal(err)
		}
		if err := rec.ParseNDJSON([]byte(line)); err != nil {
			t.Fatalf("ParseNDJSON(%q): %v", line, err)
		}
		switch want.Type {
		case "sample":
			sawSample = true
		case "kernel":
			sawKernel = true
		}
		compareRecord(t, &rec, &want, line)
	}
	if !sawSample || !sawKernel {
		t.Fatalf("stream missing a record shape: sample=%v kernel=%v", sawSample, sawKernel)
	}
}

func compareRecord(t *testing.T, got *Record, want *refRecord, line string) {
	t.Helper()
	if got.Type.String() != want.Type {
		t.Fatalf("type = %q, want %q in %q", got.Type, want.Type, line)
	}
	if string(got.Config) != want.Config || string(got.Workload) != want.Workload {
		t.Fatalf("config/workload = %q/%q, want %q/%q", got.Config, got.Workload, want.Config, want.Workload)
	}
	if got.Seq != want.Seq || got.Kernel != want.Kernel {
		t.Fatalf("seq/kernel = %d/%d, want %d/%d in %q", got.Seq, got.Kernel, want.Seq, want.Kernel, line)
	}
	if got.Start != want.Start || got.End != want.End || got.Events != want.Events {
		t.Fatalf("span mismatch in %q", line)
	}
	if got.LiveCTAs != want.LiveCTAs || got.Loads != want.Loads || got.Stores != want.Stores {
		t.Fatalf("state mismatch in %q", line)
	}
	if len(got.Resources) != len(want.Resources) {
		t.Fatalf("resources len = %d, want %d in %q", len(got.Resources), len(want.Resources), line)
	}
	for i, rr := range got.Resources {
		wr := want.Resources[i]
		if string(rr.Name) != wr.Name || string(rr.Kind) != wr.Kind || rr.GPM != wr.GPM ||
			rr.Busy != wr.Busy || rr.Units != wr.Units || rr.Util != wr.Util {
			t.Fatalf("resource %d = %+v, want %+v in %q", i, rr, wr, line)
		}
	}
	if len(got.Caches) != len(want.Caches) {
		t.Fatalf("caches len = %d, want %d in %q", len(got.Caches), len(want.Caches), line)
	}
	for i, cc := range got.Caches {
		wc := want.Caches[i]
		if string(cc.Level) != wc.Level || cc.GPM != wc.GPM || cc.Hits != wc.Hits || cc.Misses != wc.Misses {
			t.Fatalf("cache %d = %+v, want %+v in %q", i, cc, wc, line)
		}
	}
}

// TestCSVRoundTrip drives the same scenario in both encodings and checks
// that the CSV flat rows carry exactly the NDJSON records' fields.
func TestCSVRoundTrip(t *testing.T) {
	var nd, cs bytes.Buffer
	if err := driveStream(&nd, false); err != nil {
		t.Fatal(err)
	}
	if err := driveStream(&cs, true); err != nil {
		t.Fatal(err)
	}

	// Flatten the NDJSON reference into per-row expectations.
	type flatRow struct {
		ref  refRecord
		res  *refResource
		cche *refCache
	}
	var want []flatRow
	for _, line := range strings.Split(strings.TrimSuffix(nd.String(), "\n"), "\n") {
		var r refRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		for i := range r.Resources {
			want = append(want, flatRow{ref: r, res: &r.Resources[i]})
		}
		for i := range r.Caches {
			want = append(want, flatRow{ref: r, cche: &r.Caches[i]})
		}
	}

	sc, err := NewScanner(&cs, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sc.Scan() {
		if n >= len(want) {
			t.Fatalf("more CSV rows than NDJSON slices (%d)", n)
		}
		rec, w := sc.Record(), want[n]
		if rec.Type.String() != w.ref.Type || string(rec.Config) != w.ref.Config ||
			string(rec.Workload) != w.ref.Workload {
			t.Fatalf("row %d prefix mismatch: %v vs %v", n, rec, w.ref)
		}
		if rec.Start != w.ref.Start || rec.End != w.ref.End || rec.Events != w.ref.Events {
			t.Fatalf("row %d span mismatch", n)
		}
		if w.ref.Type == "sample" {
			if rec.Seq != w.ref.Seq || rec.LiveCTAs != w.ref.LiveCTAs ||
				rec.Loads != w.ref.Loads || rec.Stores != w.ref.Stores {
				t.Fatalf("row %d sample state mismatch", n)
			}
		}
		switch {
		case w.res != nil:
			if len(rec.Resources) != 1 || len(rec.Caches) != 0 {
				t.Fatalf("row %d: want one resource, got %d/%d", n, len(rec.Resources), len(rec.Caches))
			}
			rr, wr := rec.Resources[0], *w.res
			if string(rr.Name) != wr.Name || string(rr.Kind) != wr.Kind || rr.GPM != wr.GPM ||
				rr.Busy != wr.Busy || rr.Units != wr.Units || rr.Util != wr.Util {
				t.Fatalf("row %d resource = %+v, want %+v", n, rr, wr)
			}
		default:
			if len(rec.Caches) != 1 || len(rec.Resources) != 0 {
				t.Fatalf("row %d: want one cache, got %d/%d", n, len(rec.Caches), len(rec.Resources))
			}
			cc, wc := rec.Caches[0], *w.cche
			if string(cc.Level) != wc.Level || cc.GPM != wc.GPM || cc.Hits != wc.Hits || cc.Misses != wc.Misses {
				t.Fatalf("row %d cache = %+v, want %+v", n, cc, wc)
			}
		}
		n++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if n != len(want) {
		t.Fatalf("scanned %d CSV rows, want %d", n, len(want))
	}
}

// TestNullArrays covers the record shape with no registered probes:
// resources and caches encode as null.
func TestNullArrays(t *testing.T) {
	var buf bytes.Buffer
	rec := metrics.NewRecorder(&buf, 4096, false)
	rec.Begin("c", "w")
	rec.Tick(4096, 10)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	line := []byte(strings.TrimSuffix(buf.String(), "\n"))
	if !bytes.Contains(line, []byte(`"resources":null`)) {
		t.Fatalf("expected null resources in %q", line)
	}
	var r Record
	if err := r.ParseNDJSON(line); err != nil {
		t.Fatal(err)
	}
	if len(r.Resources) != 0 || len(r.Caches) != 0 {
		t.Fatalf("null arrays parsed as %d/%d entries", len(r.Resources), len(r.Caches))
	}
}

// TestScannerGzipAndOffsets: a gzipped stream scans identically to the
// plain one, with the same decompressed line-start offsets.
func TestScannerGzipAndOffsets(t *testing.T) {
	var plain bytes.Buffer
	if err := driveStream(&plain, false); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	scan := func(r io.Reader) (offs []int64, events []uint64) {
		sc, err := NewScanner(r, FormatAuto)
		if err != nil {
			t.Fatal(err)
		}
		for sc.Scan() {
			offs = append(offs, sc.Offset())
			events = append(events, sc.Record().Events)
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
		return
	}
	pOffs, pEv := scan(bytes.NewReader(plain.Bytes()))
	gOffs, gEv := scan(bytes.NewReader(gz.Bytes()))
	if len(pOffs) == 0 {
		t.Fatal("no records scanned")
	}
	if len(pOffs) != len(gOffs) {
		t.Fatalf("record counts differ: %d vs %d", len(pOffs), len(gOffs))
	}
	for i := range pOffs {
		if pOffs[i] != gOffs[i] || pEv[i] != gEv[i] {
			t.Fatalf("record %d differs: off %d/%d events %d/%d", i, pOffs[i], gOffs[i], pEv[i], gEv[i])
		}
	}
	// Offsets must be the true line starts.
	want := int64(0)
	data := plain.Bytes()
	for i, off := range pOffs {
		if off != want {
			t.Fatalf("record %d offset = %d, want %d", i, off, want)
		}
		j := bytes.IndexByte(data[off:], '\n')
		want = off + int64(j) + 1
	}
}

// TestScannerSkipsRepeatedHeaders: concatenated CSV files (each with its
// own header) scan as one stream.
func TestScannerSkipsRepeatedHeaders(t *testing.T) {
	var one bytes.Buffer
	if err := driveStream(&one, true); err != nil {
		t.Fatal(err)
	}
	cat := append(append([]byte{}, one.Bytes()...), one.Bytes()...)
	sc, err := NewScanner(bytes.NewReader(cat), FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sc.Scan() {
		n++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	rows := strings.Count(one.String(), "\n") - 1 // minus the header
	if n != 2*rows {
		t.Fatalf("scanned %d rows from doubled stream, want %d", n, 2*rows)
	}
}

// TestCreateOutput exercises the three name shapes the CLIs pass.
func TestCreateOutput(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name   string
		csv    bool
		gzcomp bool
	}{
		{"m.ndjson", false, false},
		{"m.csv", true, false},
		{"m.ndjson.gz", false, true},
		{"m.csv.gz", true, true},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name)
		w, csv, err := CreateOutput(path)
		if err != nil {
			t.Fatal(err)
		}
		if csv != c.csv {
			t.Fatalf("%s: csv = %v, want %v", c.name, csv, c.csv)
		}
		if _, err := io.WriteString(w, "hello stream\n"); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if gz := len(raw) >= 2 && string(raw[:2]) == gzipMagic; gz != c.gzcomp {
			t.Fatalf("%s: gzip = %v, want %v", c.name, gz, c.gzcomp)
		}
		if c.gzcomp {
			zr, err := gzip.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			raw = body
		}
		if string(raw) != "hello stream\n" {
			t.Fatalf("%s: content %q", c.name, raw)
		}
	}
}

// TestParseErrors: malformed lines error and never panic (the fuzz target
// explores this space further).
func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"{",
		`{"type":"sample"`,
		`{"type":"bogus","config":"c"}`,
		`{"type":"sample","config":"c}`,
		`{"type":"sample","config":"c","workload":"w","seq":x}`,
		`{"type":"sample","config":"c","workload":"w","seq":1,"kernel":0,"start":0,"end":1,"events":1,"liveCTAs":0,"loads":0,"stores":0,"resources":[{"name":"n"}],"caches":null}`,
		`{"type":"sample","config":"c","workload":"w","seq":99999999999999999999999999,"kernel":0}`,
		`{"type":"sample","config":"\q","workload":"w"}`,
		`sample,c,w,1,0,0,1,1,0,0,0,link`, // too few CSV columns
		`sample,c,w,1,0,0,1,1,0,0,0,link,0,n,0,0,0,,,extra`,
		`sample,c,"unterminated,1,0,0,1,1,0,0,0,link,0,n,0,0,0,,`,
		`sample,c,w,notanum,0,0,1,1,0,0,0,link,0,n,0,0,0,,`,
		`bogus,c,w,1,0,0,1,1,0,0,0,link,0,n,0,0,0,,`,
	}
	var r Record
	for _, line := range bad {
		if strings.HasPrefix(line, "{") || line == "" {
			if err := r.ParseNDJSON([]byte(line)); err == nil {
				t.Errorf("ParseNDJSON(%q) unexpectedly succeeded", line)
			}
		}
		if !strings.HasPrefix(line, "{") {
			if err := r.ParseCSV([]byte(line)); err == nil {
				t.Errorf("ParseCSV(%q) unexpectedly succeeded", line)
			}
		}
	}
}

// TestParseAllocs pins the steady-state parse path at zero allocations per
// record for plain lines and for lines needing string unescapes.
func TestParseAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := driveStream(&buf, false); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	var rec Record
	for _, l := range lines {
		if err := rec.ParseNDJSON(l); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := rec.ParseNDJSON(lines[i%len(lines)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("ParseNDJSON allocates %v/record in steady state, want 0", allocs)
	}

	var cs bytes.Buffer
	if err := driveStream(&cs, true); err != nil {
		t.Fatal(err)
	}
	rows := bytes.Split(bytes.TrimSuffix(cs.Bytes(), []byte("\n")), []byte("\n"))[1:] // skip header
	for _, l := range rows {
		if err := rec.ParseCSV(l); err != nil {
			t.Fatal(err)
		}
	}
	i = 0
	allocs = testing.AllocsPerRun(1000, func() {
		if err := rec.ParseCSV(rows[i%len(rows)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("ParseCSV allocates %v/record in steady state, want 0", allocs)
	}
}

func BenchmarkParseNDJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := driveStream(&buf, false); err != nil {
		b.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	var rec Record
	var total int64
	for _, l := range lines {
		total += int64(len(l)) + 1
	}
	b.SetBytes(total / int64(len(lines)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.ParseNDJSON(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// newResource returns a resource initialized under a fixed name.
func newResource(name string, unitsPerCycle float64) *engine.Resource {
	r := new(engine.Resource)
	r.Init(name, -1, unitsPerCycle)
	return r
}
