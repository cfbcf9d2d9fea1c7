// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows or series the
// paper reports, with a note quoting the paper's published result.
//
// Usage:
//
//	experiments -exp fig4                # one experiment
//	experiments -exp all -scale 0.5      # everything, half-size workloads
//	experiments -exp fig15 -csv          # CSV for plotting
//	experiments -exp all -store /var/lib/mcmgpu   # reuse prior runs from disk
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcmgpu"
	"mcmgpu/internal/cli"
	"mcmgpu/internal/report"
)

// renderBars draws one bar chart per numeric column of the table, labeled
// by the first column.
func renderBars(t *mcmgpu.Table) error {
	drew := false
	for col := 1; col < len(t.Headers); col++ {
		numeric := len(t.Rows) > 0
		for _, row := range t.Rows {
			if _, err := strconv.ParseFloat(row[col], 64); err != nil {
				numeric = false
				break
			}
		}
		if !numeric {
			continue
		}
		b, err := report.BarsFromTable(t, 0, col, "")
		if err != nil {
			continue
		}
		b.Title = fmt.Sprintf("%s — %s", t.Title, t.Headers[col])
		if err := b.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		drew = true
	}
	if !drew {
		// Nothing numeric to draw; fall back to the table.
		return t.WriteText(os.Stdout)
	}
	return nil
}

func main() { os.Exit(run()) }

// run is main with an exit code instead of os.Exit calls, so every defer —
// the profile stopper and the gzip'd -metrics writer in particular — gets
// to Close, and a Close failure (the way a full disk reports a truncated
// stream) fails the run loudly.
func run() (code int) {
	sh := cli.Register(flag.CommandLine, "experiments")
	var (
		exp     = flag.String("exp", "headline", "experiment id (table1..4, analytic, fig2..fig17, headline, tension, all)")
		max     = flag.Int("max", 0, "limit workloads per category (0 = all)")
		jobs    = flag.Int("j", 0, "parallel simulation jobs (0 = GOMAXPROCS, 1 = sequential)")
		nocache = flag.Bool("nocache", false, "disable the memoized run cache")
		csv     = flag.Bool("csv", false, "emit CSV instead of text")
		bars    = flag.Bool("bars", false, "render numeric columns as ASCII bar charts")
		list    = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "experiments:", err)
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

	drivers := mcmgpu.Experiments()
	ids := make([]string, 0, len(drivers))
	for id := range drivers {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return 0
	}

	var run []string
	if *exp == "all" {
		run = ids
	} else {
		if _, ok := drivers[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (have %v)\n", *exp, ids)
			return 1
		}
		run = []string{*exp}
	}

	r, closeRun, err := sh.Build(*nocache, nil)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if closeRun() != nil {
			code = 1
		}
	}()
	opt := mcmgpu.Options{
		Scale:          sh.Scale,
		MaxPerCategory: *max,
		Workers:        *jobs,
		NoCache:        r.Cache == nil,
		MaxEvents:      r.Limits.MaxEvents,
		Deadline:       r.Limits.WallDeadline,
		KeepGoing:      !r.FailFast,
		Fault:          r.Fault,
		Audit:          r.Limits.Audit,
		Metrics:        r.Metrics,
		Store:          r.Store,
	}
	// Warnings go to stderr (deduplicated) so the table output on stdout
	// stays byte-identical across -j settings and reruns of cached cells.
	warned := map[string]bool{}
	failedCells := false
	opt.Warnf = func(format string, args ...interface{}) {
		msg := fmt.Sprintf(format, args...)
		if warned[msg] {
			return
		}
		warned[msg] = true
		if strings.HasPrefix(msg, "cell failed") {
			failedCells = true
		}
		fmt.Fprintln(os.Stderr, "experiments: warning:", msg)
	}

	failedExps := 0
	for _, id := range run {
		start := time.Now()
		t, err := drivers[id](opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			if sh.KeepGoing {
				failedExps++
				continue
			}
			return 1
		}
		if *csv {
			if err := t.WriteCSV(os.Stdout); err != nil {
				return fail(err)
			}
		} else if *bars {
			if err := renderBars(t); err != nil {
				return fail(err)
			}
			fmt.Printf("[%s in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		} else {
			if err := t.WriteText(os.Stdout); err != nil {
				return fail(err)
			}
			fmt.Printf("[%s in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if !*nocache {
		// Stats go to stderr so table output stays byte-identical across
		// -j settings and redirects.
		s := mcmgpu.RunCacheStats()
		fmt.Fprintf(os.Stderr, "run cache: %d simulations, %d hits, %d entries\n",
			s.Simulations(), s.Hits, s.Entries)
	}
	if failedCells || failedExps > 0 {
		fmt.Fprintf(os.Stderr, "experiments: completed with failures (%d experiment(s) aborted)\n", failedExps)
		return 1
	}
	return code
}
