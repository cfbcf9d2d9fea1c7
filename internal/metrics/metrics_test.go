package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mcmgpu/internal/engine"
)

type fakeCache struct{ hits, acc uint64 }

func (f *fakeCache) Hits() uint64     { return f.hits }
func (f *fakeCache) Accesses() uint64 { return f.acc }

// drive runs a canned two-kernel scenario against a recorder: a link
// saturated over [0, 4096), idle until the kernel boundary at 8192, then a
// second kernel with a short burst.
func drive(rec *Recorder) (link, dram *engine.Resource, cache *fakeCache) {
	link = newResource("ring-cw-0", 1)
	dram = newResource("dram-0", 2)
	cache = &fakeCache{}
	rec.Begin("cfg", "wl")
	rec.AddResource("link", 0, link.Name(), link)
	rec.AddResource("dram", 0, dram.Name(), dram)
	rec.AddCaches("l1", 0, []CacheCounters{cache})
	rec.SetStateProbe(func() State { return State{LiveCTAs: 3, InFlightLoads: 2, InFlightStores: 1} })

	link.Reserve(0, 4096) // saturates [0, 4096)
	dram.Reserve(0, 1024) // busy [0, 512)
	cache.hits, cache.acc = 10, 40
	rec.Tick(4096, 1000)
	cache.hits, cache.acc = 30, 80
	rec.KernelBoundary(8192, 2000)
	link.Reserve(8192, 100)
	rec.Tick(8192+4096, 2500)
	rec.KernelBoundary(8192+4096, 3000)
	rec.Finish(8192+4096, 3000)
	return link, dram, cache
}

func TestRecorderNDJSON(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, 4096, false)
	drive(rec)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}

	var samples, kernels []map[string]interface{}
	var busySum float64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable NDJSON line %q: %v", line, err)
		}
		switch m["type"] {
		case "sample":
			samples = append(samples, m)
		case "kernel":
			kernels = append(kernels, m)
		default:
			t.Fatalf("unknown record type %v", m["type"])
		}
		for _, rr := range m["resources"].([]interface{}) {
			res := rr.(map[string]interface{})
			u := res["util"].(float64)
			if u < 0 || u > 1 {
				t.Fatalf("util %v out of [0,1] in %v record", u, m["type"])
			}
			if m["type"] == "sample" && res["name"] == "ring-cw-0" {
				busySum += res["busy"].(float64)
			}
		}
	}
	if len(kernels) != 2 {
		t.Fatalf("got %d kernel records, want 2", len(kernels))
	}
	if len(samples) < 3 {
		t.Fatalf("got %d samples, want >= 3", len(samples))
	}
	// Sample busy deltas must telescope to the drained total: drive
	// reserves 4096 + 100 units on the one-unit-per-cycle link.
	if want := 4096.0 + 100; busySum != want {
		t.Fatalf("link busy deltas sum to %v, want the drained total %v", busySum, want)
	}
	// First sample covers the saturated phase: util 1.0 exactly.
	first := samples[0]
	if first["start"].(float64) != 0 || first["end"].(float64) != 4096 {
		t.Fatalf("first sample spans [%v,%v], want [0,4096]", first["start"], first["end"])
	}
	for _, rr := range first["resources"].([]interface{}) {
		res := rr.(map[string]interface{})
		if res["name"] == "ring-cw-0" && res["util"].(float64) != 1.0 {
			t.Fatalf("saturated link sample util = %v, want 1.0", res["util"])
		}
	}
	if first["liveCTAs"].(float64) != 3 || first["loads"].(float64) != 2 || first["stores"].(float64) != 1 {
		t.Fatalf("state fields wrong in %v", first)
	}
	// Cache deltas: the first sample saw 10 hits / 40 accesses, the second
	// (boundary flush) 20 more hits over 40 more accesses; misses are
	// per-interval accesses minus hits.
	c0 := samples[0]["caches"].([]interface{})[0].(map[string]interface{})
	if c0["hits"].(float64) != 10 || c0["misses"].(float64) != 30 {
		t.Fatalf("first cache delta = %v, want hits 10 misses 30", c0)
	}
	c1 := samples[1]["caches"].([]interface{})[0].(map[string]interface{})
	if c1["hits"].(float64) != 20 || c1["misses"].(float64) != 20 {
		t.Fatalf("second cache delta = %v, want hits 20 misses 20", c1)
	}
	// Kernel records use kernel-elapsed denominators: kernel 0 spans 8192
	// cycles with 4096 busy -> util 0.5.
	k0 := kernels[0]
	if k0["start"].(float64) != 0 || k0["end"].(float64) != 8192 {
		t.Fatalf("kernel 0 spans [%v,%v], want [0,8192]", k0["start"], k0["end"])
	}
	for _, rr := range k0["resources"].([]interface{}) {
		res := rr.(map[string]interface{})
		if res["name"] == "ring-cw-0" && res["util"].(float64) != 0.5 {
			t.Fatalf("kernel 0 link util = %v, want 0.5", res["util"])
		}
	}
}

func TestRecorderCSV(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, 4096, true)
	drive(rec)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != CSVHeader {
		t.Fatalf("first line = %q, want the CSV header", lines[0])
	}
	nCols := len(strings.Split(CSVHeader, ","))
	for i, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != nCols {
			t.Fatalf("row %d has %d columns, want %d: %q", i+1, got, nCols, l)
		}
	}
	// A second run on the same recorder must not repeat the header.
	before := strings.Count(buf.String(), CSVHeader)
	drive(rec)
	if after := strings.Count(buf.String(), CSVHeader); after != before {
		t.Fatalf("header repeated on the second run: %d -> %d", before, after)
	}
}

func TestOmitCSVHeader(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, 4096, true)
	rec.OmitCSVHeader()
	drive(rec)
	if strings.Contains(buf.String(), "type,config") {
		t.Fatal("OmitCSVHeader still wrote a header")
	}
}

func TestRecorderNilWriter(t *testing.T) {
	rec := NewRecorder(nil, 0, false)
	if rec.interval != DefaultInterval {
		t.Fatalf("default interval = %d, want %d", rec.interval, DefaultInterval)
	}
	drive(rec) // must not panic
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
}

// newResource returns a resource initialized under a fixed name.
func newResource(name string, unitsPerCycle float64) *engine.Resource {
	r := new(engine.Resource)
	r.Init(name, -1, unitsPerCycle)
	return r
}
