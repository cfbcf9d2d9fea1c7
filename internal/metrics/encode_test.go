package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"mcmgpu/internal/engine"
)

// TestEncodingGolden pins the stream bytes across the encoding/json ->
// append-encoder rewrite: the golden files were captured from the original
// json.Marshal/fmt implementation and the hand-rolled encoder must reproduce
// them byte for byte, including JSON HTML escaping (<...), control-byte
// escapes, CSV quoting, and fractional busy/util formatting.
func TestEncodingGolden(t *testing.T) {
	var nd bytes.Buffer
	rec := NewRecorder(&nd, 4096, false)
	drive(rec)
	driveTricky(rec)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden_stream.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nd.Bytes(), want) {
		t.Fatalf("NDJSON stream diverged from the encoding/json golden:\ngot:  %q\nwant: %q",
			firstDiffLine(nd.Bytes(), want), firstDiffLine(want, nd.Bytes()))
	}

	var cs bytes.Buffer
	rec2 := NewRecorder(&cs, 4096, true)
	drive(rec2)
	driveTricky(rec2)
	if err := rec2.Err(); err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile("testdata/golden_stream.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cs.Bytes(), wantCSV) {
		t.Fatalf("CSV stream diverged from the fmt golden:\ngot:  %q\nwant: %q",
			firstDiffLine(cs.Bytes(), wantCSV), firstDiffLine(wantCSV, cs.Bytes()))
	}
}

// firstDiffLine returns the first line of a that differs from b, for
// readable failures.
func firstDiffLine(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return al[i]
		}
	}
	return ""
}

// TestJSONReMarshal proves the append encoder agrees with encoding/json on
// every line it emits: unmarshaling a line into the record struct and
// re-marshaling it with json.Marshal must reproduce the line exactly.
func TestJSONReMarshal(t *testing.T) {
	var nd bytes.Buffer
	rec := NewRecorder(&nd, 4096, false)
	drive(rec)
	driveTricky(rec)
	for _, line := range strings.Split(strings.TrimSpace(nd.String()), "\n") {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		var back []byte
		var err error
		switch probe.Type {
		case "sample":
			var sr sampleRecord
			if err := json.Unmarshal([]byte(line), &sr); err != nil {
				t.Fatal(err)
			}
			back, err = json.Marshal(&sr)
		case "kernel":
			var kr kernelRecord
			if err := json.Unmarshal([]byte(line), &kr); err != nil {
				t.Fatal(err)
			}
			back, err = json.Marshal(&kr)
		default:
			t.Fatalf("unknown record type %q", probe.Type)
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(back) != line {
			t.Fatalf("append encoding disagrees with encoding/json:\nours:     %s\nmarshal:  %s", line, back)
		}
	}
}

// TestAppendJSONFloatMatchesMarshal sweeps the float encoder across the
// regimes encoding/json special-cases.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.5, 973.5833333332934, 0.00011086474501109656,
		1e-6, 9.999e-7, 1e-7, 2e-7, 1e21, 1.5e21, 9.99e20, -3.25e-9,
		1e-300, 1e300, 4096, 0.125, 1.0 / 3.0,
	}
	for _, v := range vals {
		got, err := appendJSONFloat(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%v) = %q, json.Marshal = %q", v, got, want)
		}
	}
}

// TestAppendJSONStringMatchesMarshal sweeps the string encoder across the
// escaping classes.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	strs := []string{
		"", "plain", "with space", `quo"te`, `back\slash`,
		"<html>&", "tab\there", "nl\nhere", "cr\rhere", "ctrl\x01\x1f",
		"utf8 héllo ☺", "bad\xffutf8", "line sep two",
	}
	for _, s := range strs {
		got := appendJSONString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	}
}

// emitLoop registers a realistic probe mix and returns a closure emitting
// one sample per call.
func emitLoop(rec *Recorder) func() {
	links := make([]*engine.Resource, 8)
	for i := range links {
		links[i] = newResource("link", 3)
	}
	c := &fakeCache{}
	rec.Begin("cfg", "wl")
	for i, l := range links {
		rec.AddResource("link", i%4, l.Name(), l)
	}
	rec.AddCaches("l1", 0, []CacheCounters{c})
	rec.SetStateProbe(func() State { return State{LiveCTAs: 1} })
	now := engine.Cycle(0)
	events := uint64(0)
	return func() {
		now += 4096
		events += 1000
		links[int(now/4096)%8].Reserve(now-100, 33)
		c.acc += 7
		c.hits += 3
		rec.Tick(now, events)
	}
}

// TestEmitAllocs pins the rewritten emit path at ~0 amortized allocations
// per sample for both encodings (the only remaining allocations are the
// amortized growth of the summary series and the reused buffers).
func TestEmitAllocs(t *testing.T) {
	for _, csv := range []bool{false, true} {
		rec := NewRecorder(io.Discard, 4096, csv)
		emit := emitLoop(rec)
		for i := 0; i < 512; i++ {
			emit() // warm: buffers reach steady-state capacity
		}
		allocs := testing.AllocsPerRun(2000, emit)
		if allocs > 0.05 {
			t.Errorf("csv=%v: %v allocs/sample on the emit path, want ~0", csv, allocs)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkEmitSampleNDJSON(b *testing.B) {
	rec := NewRecorder(io.Discard, 4096, false)
	emit := emitLoop(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit()
	}
}

func BenchmarkEmitSampleCSV(b *testing.B) {
	rec := NewRecorder(io.Discard, 4096, true)
	emit := emitLoop(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit()
	}
}
