package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// service request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int    `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	nextID int
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children can name their parent before the
// parent's end time is known.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a span under a reserved ID.
func (t *tracer) add(id, parent, req int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span to path as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanOverheadPct estimates what recording the run's spans cost, as a
// share of the traced section's CPU capacity: the measured cost of one
// add, times the spans recorded, over wall time times workers.
func spanOverheadPct(spans int, wall time.Duration, workers int) float64 {
	if wall <= 0 || spans == 0 {
		return 0
	}
	probe := newTracer()
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.add(probe.id(), 0, 0, "probe", t0, t0)
	}
	per := time.Since(t0) / n
	return 100 * float64(per) * float64(spans) / (float64(wall) * float64(workers))
}

// durationsMs returns the durations, in milliseconds, of the spans named
// name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover. Children may overlap one another (a
// parent can fan calls out), so their covered time is the length of the
// union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// selfByName sums self time, in milliseconds, per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			if i > 0 {
				flush()
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	flush()
	return total
}

// cpuProfile profiles the calling process's timed section into path.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// layerShares reads a saved CPU profile with `go tool pprof -top`.
func layerShares(profile string) (map[string]float64, time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile)
	cmd.Stderr = io.Discard
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %w", filepath.Base(profile), err)
	}
	return sharesFromTop(bytes.NewReader(out))
}

// sharesFromTop returns each cpuLayers group's share of the flat samples in
// `go tool pprof -top` output, in percent, plus the total sampled CPU time.
func sharesFromTop(r io.Reader) (map[string]float64, time.Duration, error) {
	byPkg, err := parseTop(r)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	var total time.Duration
	for pkg, d := range byPkg {
		shares[layerOf(pkg)] += float64(d)
		total += d
	}
	for l := range shares {
		if total > 0 {
			shares[l] = 100 * shares[l] / float64(total)
		}
	}
	return shares, total, nil
}

// parseTop sums the flat column of `go tool pprof -top` output by the Go
// package of each row's function.
func parseTop(r io.Reader) (map[string]time.Duration, error) {
	byPkg := map[string]time.Duration{}
	sc := bufio.NewScanner(r)
	inRows := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(fields) == 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		d, err := parseFlat(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		byPkg[packageOf(strings.Join(fields[5:], " "))] += d
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inRows {
		return nil, fmt.Errorf("pprof output has no flat/cum table")
	}
	return byPkg, nil
}

// parseFlat parses a pprof duration cell such as "1.20s", "340ms", "0".
func parseFlat(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", float64(time.Minute)}, {"hrs", float64(time.Hour)}, {"ms", float64(time.Millisecond)},
		{"us", float64(time.Microsecond)}, {"µs", float64(time.Microsecond)}, {"ns", 1}, {"s", float64(time.Second)}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(v * u.scale), nil
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// packageOf returns the import path of a pprof function name such as
// "mcmgpu/internal/engine.(*Sim).pop" or "runtime.mallocgc". Type
// arguments in brackets can hold dots and slashes of their own, so they are
// cut first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps an import path to its cpuLayers group.
func layerOf(pkg string) string {
	const internal = "mcmgpu/internal/"
	switch {
	case strings.HasPrefix(pkg, internal):
		l, _, _ := strings.Cut(strings.TrimPrefix(pkg, internal), "/")
		for _, known := range cpuLayers {
			if l == known {
				return l
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "net"
	case pkg == "encoding/json":
		return "json"
	}
	return "other"
}
