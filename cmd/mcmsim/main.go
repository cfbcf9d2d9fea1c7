// Command mcmsim runs one workload on one simulated GPU system and prints
// its statistics. It is the low-level entry point; cmd/experiments
// regenerates the paper's tables and figures.
//
// Usage:
//
//	mcmsim -system mcm-baseline -workload Stream
//	mcmsim -system mcm-optimized -workload all -scale 0.5
//	mcmsim -system mcm-tiled-region -workload GEMM2D-4K
//	mcmsim -config machine.json -workload CoMD -json
//	mcmsim -store /var/lib/mcmgpu -workload all   # reuse the durable run store
//	mcmsim -dump-config mcm-optimized      # write a preset as JSON
//	mcmsim -list
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/engine"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/metrics"
	"mcmgpu/internal/metricstream"
	"mcmgpu/internal/prof"
	"mcmgpu/internal/report"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore"
	"mcmgpu/internal/workload"
)

// systems maps CLI names to configuration presets.
var systems = map[string]func() *config.Config{
	"mcm-baseline":       config.BaselineMCM,
	"mcm-optimized":      config.OptimizedMCM,
	"mcm-optimized-16mb": config.OptimizedMCM16,
	"mcm-tiled-region":   config.TiledRegionMCM,
	"mono-128":           config.LargestBuildableMonolithic,
	"mono-256":           config.UnbuildableMonolithic,
	"multi-gpu":          config.MultiGPUBaseline,
	"multi-gpu-opt":      config.MultiGPUOptimized,
}

func main() { os.Exit(run()) }

// run is main with an exit code instead of os.Exit calls, so every defer —
// in particular the gzip'd -metrics writer's Close, whose error is how a
// full disk announces a truncated stream — runs on every exit path.
func run() (code int) {
	var (
		system  = flag.String("system", "mcm-baseline", "system preset to simulate")
		app     = flag.String("workload", "Stream", "workload name, a category (m-intensive, c-intensive, limited), 'dense', or 'all'")
		scale   = flag.Float64("scale", 1.0, "work scale factor (trades fidelity for speed)")
		list    = flag.Bool("list", false, "list systems and workloads, then exit")
		linkBW  = flag.Float64("link", 0, "override inter-GPM link bandwidth in GB/s")
		v       = flag.Bool("v", false, "verbose per-run detail")
		char    = flag.Bool("characterize", false, "characterize the selected workloads' access streams instead of simulating")
		cfgF    = flag.String("config", "", "load the machine from a JSON file instead of -system")
		dump    = flag.String("dump-config", "", "print the named system preset as JSON and exit")
		asJSON  = flag.Bool("json", false, "emit results as JSON")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")

		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the whole invocation (0 = none)")
		maxEvents = flag.Uint64("max-events", 0, "per-run event budget (0 = none)")
		maxCycles = flag.Uint64("max-cycles", 0, "per-run simulated-cycle budget (0 = none)")
		auditOn   = flag.Bool("audit", false, "check simulation invariants (conservation laws) during every run; MCMGPU_AUDIT=1 forces this on")
		keepGoing = flag.Bool("keep-going", false, "continue to the next workload after a failed run; exit 1 at the end")
		storeDir  = flag.String("store", "", "durable run store directory: serve warm (config, workload, scale) cells from disk and persist fresh ones")

		metricsF  = flag.String("metrics", "", "stream per-interval time-series samples to this file (NDJSON, or CSV when the path ends in .csv; a .gz suffix gzips either)")
		metricsIv = flag.Uint64("metrics-interval", uint64(metrics.DefaultInterval), "sampling interval in cycles for -metrics")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "mcmsim:", err)
		return 1
	}
	warnf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "mcmsim: "+format+"\n", args...)
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return fail(fmt.Errorf("-scale %v: want a positive, finite number", *scale))
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mcmsim:", err)
			code = 1
		}
	}()

	if *dump != "" {
		mk, ok := systems[*dump]
		if !ok {
			return fail(fmt.Errorf("unknown system %q", *dump))
		}
		if err := mk().WriteJSON(os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *list {
		fmt.Println("systems:")
		names := make([]string, 0, len(systems))
		for name := range systems {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("workloads:")
		for _, n := range workload.Names() {
			fmt.Printf("  %s\n", n)
		}
		return 0
	}

	var cfg *config.Config
	if *cfgF != "" {
		if cfg, err = config.LoadFile(*cfgF); err != nil {
			return fail(err)
		}
	} else {
		mk, ok := systems[*system]
		if !ok {
			return fail(fmt.Errorf("unknown system %q", *system))
		}
		cfg = mk()
	}
	if *linkBW > 0 {
		cfg.Link.GBps = *linkBW
		cfg.Name = fmt.Sprintf("%s@%.0fGB/s", cfg.Name, *linkBW)
	}

	specs, err := workload.Select(*app)
	if err != nil {
		return fail(err)
	}

	if *char {
		if err := characterize(specs, *scale); err != nil {
			return fail(err)
		}
		return 0
	}

	fault, err := faultinject.FromEnv()
	if err != nil {
		return fail(err)
	}
	ropts := core.RunOptions{MaxEvents: *maxEvents, MaxCycles: *maxCycles, Audit: *auditOn}
	if *timeout > 0 {
		ropts.WallDeadline = time.Now().Add(*timeout)
	}

	var store *runstore.Store
	if *storeDir != "" {
		// An unopenable store degrades to plain compute: durability is an
		// optimization, the simulation still runs.
		if store, err = runstore.Open(*storeDir, runstore.WithLogf(warnf), runstore.WithFault(fault)); err != nil {
			warnf("store unavailable, computing without it: %v", err)
			store = nil
		}
	}

	// One recorder serves all sequential runs; each run's records carry its
	// own config/workload labels, so the streams concatenate cleanly. With a
	// store attached, each run instead samples through its own recorder into
	// a tee (output + capture buffer), so the stream can be persisted per
	// run and replayed on store hits; the CSV header is then written once up
	// front, exactly as the parallel runner's flush phase does.
	var (
		rec        *metrics.Recorder
		metricsW   io.WriteCloser
		metricsCSV bool
	)
	if *metricsF != "" {
		f, csv, err := metricstream.CreateOutput(*metricsF)
		if err != nil {
			return fail(err)
		}
		metricsW, metricsCSV = f, csv
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mcmsim:", err)
				code = 1
			}
		}()
		if store == nil {
			rec = metrics.NewRecorder(f, engine.Cycle(*metricsIv), csv)
			ropts.Metrics = rec
		} else if csv {
			if _, err := io.WriteString(f, metrics.CSVHeader+"\n"); err != nil {
				return fail(err)
			}
		}
	}

	// keyRunner derives store keys exactly the way the parallel runner and
	// mcmserve do, so all three share warm cells.
	keyRunner := &runner.Runner{Limits: ropts0(ropts), Fault: fault}
	if store != nil && metricsW != nil {
		keyRunner.Metrics = &runner.MetricsOptions{Interval: *metricsIv, W: io.Discard, CSV: metricsCSV}
	}

	failed := 0
	for _, spec := range specs {
		runSpec := spec
		if *scale != 1.0 {
			runSpec = spec.Scaled(*scale)
		}
		job := runner.Job{Config: cfg, Spec: spec, Scale: *scale}
		var key string
		if store != nil {
			key = keyRunner.StoreKey(job)
			res, stream, ok, err := store.Get(key)
			if err != nil {
				warnf("store read failed, computing: %v", err)
			}
			if ok {
				if metricsW != nil && len(stream) > 0 {
					if _, err := metricsW.Write(stream); err != nil {
						return fail(err)
					}
				}
				if err := printResult(res, *asJSON, *v); err != nil {
					return fail(err)
				}
				if metricsW != nil {
					warnf("%s on %s: served from store; summary tables skipped (stream replayed, sampling not re-run)",
						runSpec.Name, cfg.Name)
				}
				warnClamped(res, runSpec.Name)
				continue
			}
		}

		m, err := core.New(cfg.Clone())
		if err != nil {
			return fail(err)
		}
		specOpts := ropts
		if fault.Matches(runSpec.Name) {
			specOpts.Fault = fault
		}
		var capture *bytes.Buffer
		runRec := rec
		if store != nil && metricsW != nil {
			capture = &bytes.Buffer{}
			runRec = metrics.NewRecorder(io.MultiWriter(metricsW, capture), engine.Cycle(*metricsIv), metricsCSV)
			runRec.OmitCSVHeader()
			specOpts.Metrics = runRec
		}
		res, err := m.RunWith(runSpec, specOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcmsim:", err)
			if *keepGoing {
				failed++
				continue
			}
			return 1
		}
		if store != nil {
			var stream []byte
			if capture != nil {
				stream = capture.Bytes()
			}
			_ = store.Put(key, res, stream) // best-effort; failures are logged by the store
		}
		if err := printResult(res, *asJSON, *v); err != nil {
			return fail(err)
		}
		if runRec != nil {
			for _, tbl := range runRec.Summary().Tables() {
				fmt.Println()
				if err := tbl.WriteText(os.Stdout); err != nil {
					return fail(err)
				}
			}
		}
		warnClamped(res, runSpec.Name)
	}
	if store != nil {
		fmt.Fprintf(os.Stderr, "mcmsim: store: %v\n", store.Stats())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mcmsim: %d of %d workloads failed\n", failed, len(specs))
		return 1
	}
	return 0
}

// ropts0 strips the per-run sampler from the options used for key
// derivation (the runner models sampling through its own MetricsOptions).
func ropts0(o core.RunOptions) core.RunOptions {
	o.Metrics = nil
	return o
}

// printResult renders one run the way mcmsim always has: JSON with -json,
// one-line summary plus optional -v detail otherwise.
func printResult(res *core.Result, asJSON, verbose bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Println(res)
	if verbose {
		fmt.Printf("  instrs=%d memops=%d reads=%d writes=%d\n",
			res.WarpInstrs, res.MemOps, res.LineReads, res.LineWrites)
		// Hit rates render as a dash when a level was never accessed
		// (disabled L1.5, all-hit upper level), not as a fake 0%.
		fmt.Printf("  L1=%s L1.5=%s L2=%s dramBytes=%d dramUtil avg=%.2f peak=%.2f linkUtil=%.2f pages=%d\n",
			rate(res.L1HitRate, res.L1Accesses > 0),
			rate(res.L15HitRate, res.L15Accesses > 0),
			rate(res.L2HitRate, res.L2Accesses > 0),
			res.DRAMBytes, res.AvgDRAMUtil, res.PeakDRAMUtil, res.MaxLinkUtil, res.MappedPages)
		e := res.EnergyPJ
		fmt.Printf("  energy(pJ): chip=%.0f package=%.0f board=%.0f dram=%.0f total=%.0f\n",
			e.Chip, e.Package, e.Board, e.DRAM, e.Total)
	}
	return nil
}

func warnClamped(res *core.Result, name string) {
	if res.ClampedEvents > 0 {
		fmt.Fprintf(os.Stderr, "mcmsim: warning: %s clamped %d event(s) to the current cycle\n",
			name, res.ClampedEvents)
	}
}

// rate renders a hit rate, or report.Dash when the level was never accessed
// — a disabled L1.5 shows "—" instead of a fake 0.000.
func rate(v float64, valid bool) string {
	if !valid {
		return report.Dash
	}
	return fmt.Sprintf("%.3f", v)
}

// characterize walks one kernel launch of each workload's access stream and
// prints its statistics: memory ops, distinct lines, footprint (distinct
// lines times the line size), the share of ops that write, and reuse (line
// accesses per distinct line).
func characterize(specs []*workload.Spec, scale float64) error {
	t := report.New("Workload characterization (one kernel launch)",
		"Workload", "Category", "Pattern", "Ops", "Unique lines", "Footprint (MB)", "Write frac", "Reuse")
	for _, spec := range specs {
		run := spec
		if scale != 1.0 {
			run = spec.Scaled(scale)
		}
		if err := run.Validate(); err != nil {
			return err
		}
		var ops, writes, accesses int
		lines := make(map[uint64]struct{})
		var op workload.Op
		for cta := 0; cta < run.CTAs; cta++ {
			for w := 0; w < run.WarpsPerCTA; w++ {
				for st := workload.NewStream(run, cta, w); st.Next(&op); {
					ops++
					if op.Write {
						writes++
					}
					accesses += op.NumLines
					for _, l := range op.Lines[:op.NumLines] {
						lines[l] = struct{}{}
					}
				}
			}
		}
		var writeFrac, reuse float64
		if ops > 0 {
			writeFrac = float64(writes) / float64(ops)
		}
		if len(lines) > 0 {
			reuse = float64(accesses) / float64(len(lines))
		}
		t.AddRowF(spec.Name, spec.Category.String(), spec.Pattern.String(),
			ops, len(lines), float64(len(lines))*config.LineBytes/config.MB, writeFrac, reuse)
	}
	return t.WriteText(os.Stdout)
}
