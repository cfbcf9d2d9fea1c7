// Command bench is the repository's benchmark: it drives the simulator
// library and the sweep, mcmstat and mcmserve binaries through four
// workloads, checks their outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 192, "failed": 0, "metrics": {...}}
//
// An untraced run reports the end-to-end metrics; a traced run (-trace 1)
// reports the per-layer metrics, writes spans.json and a CPU profile. See
// README.md for the workloads, the metrics and how to compare two commits.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload suite -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -workload service -seed 1 -repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// env is one run's settings and scratch space.
type env struct {
	seed     uint64
	seconds  time.Duration
	quick    bool
	workers  int
	root     string // repository root, where the binaries are built from
	work     string // scratch directory, removed when the run ends
	bin      string // built sweep, mcmstat and mcmserve
	traceDir string
	tr       *tracer // nil unless traced
	sims     simLog
}

// startProfile starts the traced run's CPU profile of the timed section;
// untraced it returns nil.
func (e *env) startProfile() (*cpuProfile, error) {
	if e.tr == nil {
		return nil, nil
	}
	return startCPUProfile(filepath.Join(e.traceDir, "cpu.pprof"))
}

type workloadDef struct {
	name  string
	why   string
	tools []string
	// oneCPU runs the workload's own process on one CPU (GOMAXPROCS 1):
	// set for the in-process simulations, whose every cell runs on one
	// goroutine. With a second CPU the garbage collector runs beside the
	// simulation, and how much of its cost that hides depends on whether
	// the shared host lends the second CPU at the time; set-up alone takes
	// twice as long, and varies more, with two.
	oneCPU bool
	run    func(*env) (*report, error)
}

var workloads = []workloadDef{
	{name: "suite", why: "48 paper apps on baseline and optimized MCM at scale 0.1, cold caches: the simulator hot path, short set-up-bound cells beside long engine-bound ones",
		oneCPU: true, run: runSuite},
	{name: "observe", why: "full-size dense GEMM and attention cells sampled every 64 cycles, then aggregated by mcmstat: the telemetry and stat layers suite never touches",
		tools: []string{"mcmstat"}, oneCPU: true, run: runObserve},
	{name: "sweep", why: "the two-phase sweep binary end to end: estimator, Pareto frontier and the parallel runner that suite bypasses",
		tools: []string{"sweep"}, run: runSweep},
	{name: "service", why: "mcmserve under an open loop of warm store reads beside cold simulate-and-write requests: HTTP, queue and run store",
		tools: []string{"mcmserve"}, run: runService},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: suite, observe, sweep or service")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "length of the timed section")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans.json and a CPU profile")
		repeat  = flag.Int("repeat", 0, "run N times with seeds seed..seed+N-1 and print each metric's median and spread")
		quick   = flag.Bool("quick", false, "tiny inputs for a smoke test; the numbers mean nothing")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need -workload (suite, observe, sweep, service), -seconds >= 1 and -trace 0 or 1\n")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, *seed)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, quick: *quick,
		workers: runtime.GOMAXPROCS(0), root: root}
	out, err := runWorkload(e, w, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runWorkload prepares scratch space and binaries, runs one workload and
// prints its metrics and checks in human-readable form.
func runWorkload(e *env, w workloadDef, traced bool) (resultOut, error) {
	// Injected faults and forced auditing would change what is measured.
	os.Unsetenv("MCMGPU_FAULT")
	os.Unsetenv("MCMGPU_AUDIT")
	build := filepath.Join(e.root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return resultOut{}, err
	}
	work, err := os.MkdirTemp(filepath.Join(build, "tmp"), w.name+"-")
	if err != nil {
		return resultOut{}, err
	}
	defer os.RemoveAll(work)
	e.work = work
	os.Setenv("TMPDIR", work) // children's temporary files stay in the checkout
	e.bin = filepath.Join(build, "bin")
	if err := buildTools(e.root, e.bin, w.tools...); err != nil {
		return resultOut{}, err
	}
	if traced {
		e.traceDir = filepath.Join(build, "trace", fmt.Sprintf("%s-seed%d", w.name, e.seed))
		if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
			return resultOut{}, err
		}
		e.tr = newTracer()
	}
	warmHost(e.workers, hostWarmup)
	if w.oneCPU {
		runtime.GOMAXPROCS(1)
		e.workers = 1
	}
	r, err := w.run(e)
	if err != nil {
		return resultOut{}, fmt.Errorf("%s: %w", w.name, err)
	}
	out, err := r.result(traced)
	if err != nil {
		return out, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, d := range allMetrics() {
		if m, ok := out.Metrics[d.Name]; ok {
			fmt.Printf("%-26s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	fmt.Printf("correct: %v (%d attempted, %d failed)\n", out.Correct, out.Attempted, out.Failed)
	return out, nil
}

// hostWarmup is how long every CPU spins before a workload starts. On the
// small virtual machines the benchmark runs on, a CPU that was idle runs a
// fixed loop up to twice as slowly for its first second or two of load;
// without this the first measurements of a run depend on how long the
// machine sat idle before it.
const hostWarmup = 3 * time.Second

// warmHost keeps every CPU busy for d.
func warmHost(workers int, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(deadline) {
				for i := 0; i < 1<<16; i++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
}

// sink keeps warmHost's loop from being optimized away.
var sink atomic.Uint64

// repeatRuns reruns this command n times as fresh processes, with seeds
// seed..seed+n-1, and prints each metric's median and its spread — the
// distance between the quartiles as a share of the median — which is how
// the bounds in BENCHMARK.json were calibrated.
func repeatRuns(n int, seed uint64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var base []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "repeat" && f.Name != "seed" {
			base = append(base, "-"+f.Name, f.Value.String())
		}
	})
	values := map[string][]float64{}
	units := map[string]string{}
	code := 0
	for i := 0; i < n; i++ {
		args := append([]string{"-seed", strconv.FormatUint(seed+uint64(i), 10)}, base...)
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		var res resultOut
		if jerr := json.Unmarshal([]byte(lastLines(string(stdout), 1)), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "bench: run %d (%v): no result: %v\n", i, err, jerr)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		for name, m := range res.Metrics {
			units[name] = m.Unit
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "bench: run %d/%d done (correct=%v)\n", i+1, n, res.Correct)
	}
	fmt.Printf("%-26s %14s %8s  %-8s (%d runs)\n", "metric", "median", "spread", "unit", n)
	for _, d := range allMetrics() {
		vs, ok := values[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-26s %14.4f %7.2f%%  %s\n", d.Name, quantile(vs, 0.5), 100*spread(vs), units[d.Name])
	}
	return code
}
