package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/workload"
)

// sweepLinkChoices are the inter-GPM link bandwidths (GB/s) a run's seed
// picks its four grid columns from.
var sweepLinkChoices = []int{256, 384, 512, 768, 1024, 1536, 2048, 3072}

const (
	sweepL15   = "0,8,16"
	sweepApps  = "c-intensive"
	sweepScale = 0.1
	sweepCells = 3 // -refine: grid cells phase 2 simulates
	sweepMinOp = 3
)

// sweepBench is the sweep binary's -bench-json report.
type sweepBench struct {
	Workloads      int     `json:"workloads"`
	SimulatedCells int     `json:"simulated_cells"`
	Phase1Seconds  float64 `json:"phase1_seconds"`
	Phase2Seconds  float64 `json:"phase2_seconds"`
}

// runSweep is the sweep workload: the two-phase sweep binary run back to
// back as fresh processes over a seed-chosen link grid.
func runSweep(e *env) (*report, error) {
	r := newReport()
	rng := rand.New(rand.NewSource(int64(e.seed)))
	var links []int
	for _, i := range rng.Perm(len(sweepLinkChoices))[:4] {
		links = append(links, sweepLinkChoices[i])
	}
	sort.Ints(links)
	linkArg := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(links)), ","), "[]")
	scale, cells, apps := sweepScale, sweepCells, sweepApps
	if e.quick {
		scale, cells, apps = 0.02, 1, "limited"
	}
	csvPath := filepath.Join(e.work, "sweep.csv")
	benchPath := filepath.Join(e.work, "sweep.json")
	args := []string{"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-refine", strconv.Itoa(cells),
		"-nocache", "-j", strconv.Itoa(e.workers), "-workloads", apps, "-links", linkArg, "-l15", sweepL15,
		"-csv", csvPath, "-bench-json", benchPath}

	prof, err := e.startProfile()
	if err != nil {
		return nil, err
	}
	var (
		firstCSV                  []byte
		lat, setups, rss          []float64
		p1Share, p2Share, jobRate []float64
		utils                     []float64
		cpuTotal                  time.Duration
	)
	start := time.Now()
	for i := 0; i < sweepMinOp || time.Since(start) < e.seconds; i++ {
		r.attempted++
		id := e.tr.id()
		t0 := time.Now()
		cr, err := runChild(filepath.Join(e.bin, "sweep"), args...)
		e.tr.add(id, 0, 0, "sweep", t0, time.Now())
		if err != nil {
			r.opFailed("%v", err)
			continue
		}
		csv, err := os.ReadFile(csvPath)
		if err != nil {
			return nil, err
		}
		var sb sweepBench
		data, err := os.ReadFile(benchPath)
		if err == nil {
			err = json.Unmarshal(data, &sb)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep report: %w", err)
		}
		switch {
		case firstCSV == nil:
			firstCSV = csv
		case !bytes.Equal(csv, firstCSV):
			r.opFailed("sweep invocation %d wrote a different grid than invocation 0", i)
			continue
		}
		if sb.SimulatedCells != cells {
			r.opFailed("sweep simulated %d cells, want %d", sb.SimulatedCells, cells)
			continue
		}
		wall := cr.wall.Seconds()
		lat = append(lat, ms(cr.wall))
		setups = append(setups, wall-sb.Phase1Seconds-sb.Phase2Seconds)
		cpuTotal += cr.cpu
		rss = append(rss, cr.maxRSS)
		p1Share = append(p1Share, 100*sb.Phase1Seconds/wall)
		p2Share = append(p2Share, 100*sb.Phase2Seconds/wall)
		jobRate = append(jobRate, float64((sb.SimulatedCells+1)*sb.Workloads)/sb.Phase2Seconds)
		utils = append(utils, 100*cr.cpu.Seconds()/wall)
	}
	wall := time.Since(start)
	if prof != nil {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no sweep invocation succeeded: %v", r.problems)
	}
	r.set("setup_s", quantile(setups, 0.5))
	r.set("op_ms_p50", quantile(lat, 0.5))
	r.set("op_ms_tail", quantile(lat, tailQuantile(len(lat))))
	r.set("ops_per_s", float64(len(lat))/wall.Seconds())
	r.set("cpu_ms_per_op", ms(cpuTotal)/float64(len(lat)))
	r.set("peak_rss_mb", quantile(rss, 1))
	r.set("sweep.phase1_pct", quantile(p1Share, 0.5))
	r.set("sweep.phase2_pct", quantile(p2Share, 0.5))
	r.set("sweep.sim_jobs_per_s", quantile(jobRate, 0.5))
	r.set("sweep.cpu_util_pct", quantile(utils, 0.5))
	fmt.Printf("sweep: links %s, %d invocations in %.2fs\n", linkArg, len(lat), wall.Seconds())

	check, err := recomputeCell(e, r, firstCSV, apps, scale)
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		return r, finishTrace(e, r, prof, wall, check)
	}
	return r, nil
}

// recomputeCell re-simulates the first simulated cell of a sweep grid in
// process, from the library rather than the binary, and checks that its
// geomean speedup over the baseline matches the grid. It returns the
// results it simulated.
func recomputeCell(e *env, r *report, csv []byte, apps string, scale float64) ([]*core.Result, error) {
	rows := strings.Split(strings.TrimSpace(string(csv)), "\n")
	header := strings.Split(rows[0], ",")
	var l15MB int
	var link float64
	var want string
	for _, row := range rows[1:] {
		f := strings.Split(row, ",")
		for col := 1; col < len(f) && want == ""; col++ {
			if !strings.HasPrefix(f[col], "~") {
				l15MB, _ = strconv.Atoi(f[0])
				link, _ = strconv.ParseFloat(header[col], 64)
				want = f[col]
			}
		}
	}
	if want == "" {
		return nil, fmt.Errorf("sweep grid has no simulated cell:\n%s", csv)
	}
	specs, err := sweepSpecs(apps)
	if err != nil {
		return nil, err
	}
	// The grid cell's system, built as cmd/sweep builds -optimized cells.
	sys := config.MCMWithLink(link)
	if l15MB > 0 {
		keep := sys.Link.GBps
		sys = config.WithL15(sys, l15MB*config.MB, config.AllocRemoteOnly)
		sys.Link.GBps = keep
	}
	sys.Scheduler = config.SchedDistributed
	sys.Placement = config.PlaceFirstTouch
	var cells []cell
	for _, s := range specs {
		spec := s
		if scale != 1 {
			spec = s.Scaled(scale)
		}
		cells = append(cells, cell{cfg: config.BaselineMCM(), spec: spec}, cell{cfg: sys, spec: spec})
	}
	res := make([]*core.Result, len(cells))
	errs := make([]error, len(cells))
	parallel(e.workers, len(cells), func(i int) {
		res[i], errs[i] = e.simulate(0, cells[i], core.RunOptions{})
	})
	var base, opt []*core.Result
	for i := 0; i < len(cells); i += 2 {
		r.attempted++
		if errs[i] != nil || errs[i+1] != nil {
			r.opFailed("in-process recompute: %v %v", errs[i], errs[i+1])
			continue
		}
		base, opt = append(base, res[i]), append(opt, res[i+1])
	}
	g, err := speedupGeomean(base, opt)
	if err != nil {
		return nil, err
	}
	got := fmt.Sprintf("%.4f", g)
	r.check(got == want, "sweep grid says %s for l15=%dMB link=%g, the library computes %s", want, l15MB, link, got)
	return nonNil(res), nil
}

func sweepSpecs(sel string) ([]*workload.Spec, error) {
	switch sel {
	case "c-intensive":
		return workload.CIntensive(), nil
	case "limited":
		return workload.Limited(), nil
	}
	return nil, fmt.Errorf("unknown workload selection %q", sel)
}
