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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mcmgpu/internal/cli"
	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/metricstream"
	"mcmgpu/internal/report"
	"mcmgpu/internal/runner"
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
	sh := cli.Register(flag.CommandLine, "mcmsim")
	var (
		system    = flag.String("system", "mcm-baseline", "system preset to simulate")
		app       = flag.String("workload", "Stream", "workload name, a category (m-intensive, c-intensive, limited), 'dense', or 'all'")
		list      = flag.Bool("list", false, "list systems and workloads, then exit")
		linkBW    = flag.Float64("link", 0, "override inter-GPM link bandwidth in GB/s")
		v         = flag.Bool("v", false, "verbose per-run detail")
		char      = flag.Bool("characterize", false, "characterize the selected workloads' access streams instead of simulating")
		cfgF      = flag.String("config", "", "load the machine from a JSON file instead of -system")
		dump      = flag.String("dump-config", "", "print the named system preset as JSON and exit")
		asJSON    = flag.Bool("json", false, "emit results as JSON")
		maxCycles = flag.Uint64("max-cycles", 0, "per-run simulated-cycle budget (0 = none)")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "mcmsim:", err)
		return 1
	}
	if err := sh.Validate(); err != nil {
		return fail(err)
	}

	stopProf, err := sh.Profile()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if stopProf() != nil {
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
		if err := characterize(specs, sh.Scale); err != nil {
			return fail(err)
		}
		return 0
	}

	// An invalid machine is a usage error, not one failed run per workload.
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	// The memo cache stays off: one pass over distinct workloads has nothing
	// to reuse within the process.
	r, closeRun, err := sh.Build(true, nil)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if closeRun() != nil {
			code = 1
		}
	}()
	r.Limits.MaxCycles = *maxCycles
	// The summary tables are read back from each run's stream, so tee it.
	// Reading drains the buffer, so each run reads only its own records.
	var stream bytes.Buffer
	summarize := r.Metrics != nil && !*asJSON
	if summarize {
		r.Metrics.W = io.MultiWriter(r.Metrics.W, &stream)
	}

	// One single-job Run per workload, so each result prints as it finishes.
	failed := 0
	for _, spec := range specs {
		res, err := r.Run([]runner.Job{{Config: cfg, Spec: spec, Scale: sh.Scale}})
		if err != nil {
			var jerrs runner.JobErrors
			if !errors.As(err, &jerrs) {
				return fail(err)
			}
			// Print the cause alone: a SimError already names the workload
			// and system the JobError would prefix.
			fmt.Fprintln(os.Stderr, "mcmsim:", jerrs[0].Err)
			if sh.KeepGoing {
				failed++
				continue
			}
			return 1
		}
		if err := printResult(res[0], *asJSON, *v); err != nil {
			return fail(err)
		}
		if summarize {
			tables, err := metricstream.Summary(&stream)
			if err != nil {
				return fail(err)
			}
			for _, tbl := range tables {
				fmt.Println()
				if err := tbl.WriteText(os.Stdout); err != nil {
					return fail(err)
				}
			}
		}
		warnClamped(res[0], spec.Name)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mcmsim: %d of %d workloads failed\n", failed, len(specs))
		return 1
	}
	return 0
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
		run := spec.AtScale(scale)
		if err := run.Validate(); err != nil {
			return err
		}
		var ops, writes, accesses int
		lines := make(map[uint32]struct{})
		var c workload.CTAStream
		var st workload.WarpStream
		for cta := 0; cta < run.CTAs; cta++ {
			c.Init(run, cta)
			for w := 0; w < run.WarpsPerCTA; w++ {
				for st.Init(run, &c, w); st.Next(); {
					ops++
					if st.Op(run, &c, w) {
						writes++
					}
					accesses += run.LinesPerOp
					for l := range run.LinesPerOp {
						lines[uint32(st.Line(run, l))] = struct{}{}
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
