package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRe = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(got, " ") != want {
		t.Errorf("BENCHMARK.json keys %v, want exactly %s", got, want)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode fails when the benchmark can emit a metric or run
// a workload BENCHMARK.json lacks, or the reverse, or when a unit, a
// direction or a bound disagrees.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)

	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	for i := 0; i < min(len(m.Workloads), len(workloads)); i++ {
		if got, want := m.Workloads[i], workloads[i]; got.Name != want.name || got.Why != want.why {
			t.Errorf("workload %d: manifest %q (%q), code %q (%q)", i, got.Name, got.Why, want.name, want.why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Errorf("manifest lists %d end-to-end metrics, code has %d", len(m.EndToEnd), len(endToEnd))
	}
	for i := 0; i < min(len(m.EndToEnd), len(endToEnd)); i++ {
		got, want := m.EndToEnd[i], endToEnd[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better || got.Bound != want.Bound {
			t.Errorf("end-to-end %d: manifest %+v, code %+v", i, got, want)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Errorf("manifest lists %d per-layer metrics, code has %d", len(m.PerLayer), len(perLayer))
	}
	for i := 0; i < min(len(m.PerLayer), len(perLayer)); i++ {
		got, want := m.PerLayer[i], perLayer[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
			t.Errorf("per-layer %d: manifest %+v, code %+v", i, got, want)
		}
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("per-layer %s does not say which end-to-end metric it should move", d.Name)
		}
	}
}

// TestManifestLimits holds BENCHMARK.json to the limits a benchmark
// definition must stay within.
func TestManifestLimits(t *testing.T) {
	m := readManifest(t)

	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d elements", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command element %q", c)
		}
		if strings.Contains(c, "/") && !underPaths(c, m.Paths) {
			t.Errorf("command names %q outside paths %v", c, m.Paths)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range m.Paths {
		if !pathRe.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
		if fi, err := os.Stat(filepath.Join("..", p)); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("%s name %q breaks %s", kind, n, nameRe)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	var setupBound, maxBound float64
	for _, d := range m.EndToEnd {
		name("end-to-end", d.Name)
		if !unitRe.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must exist and be the largest (%v)", setupBound, maxBound)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range m.PerLayer {
		name("per-layer", d.Name)
		if !unitRe.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
}

func underPaths(p string, paths []string) bool {
	for _, dir := range paths {
		if strings.HasPrefix(p, strings.TrimSuffix(dir, "/")+"/") {
			return true
		}
	}
	return false
}
