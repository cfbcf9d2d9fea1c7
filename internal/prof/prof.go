// Package prof wires CPU and heap profiling into the command-line tools.
// internal/cli registers -cpuprofile and -memprofile for experiments, sweep
// and mcmsim alike and backs them with Start; the resulting files feed `go
// tool pprof`, which is how the event-engine hot path was measured and is
// how future regressions get diagnosed without ad-hoc instrumentation.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins profiling as requested and returns a stop function to call
// once the measured work is done (defer is fine). An empty filename skips
// that profile. The CPU profile streams for the lifetime of the run; the
// heap profile is one allocation snapshot taken at stop time, after a final
// GC so it reflects live objects rather than collectable garbage.
func Start(cpuFile, memFile string) (stop func() error, err error) {
	var cpuOut *os.File
	if cpuFile != "" {
		cpuOut, err = os.Create(cpuFile)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			cpuOut.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuOut != nil {
			pprof.StopCPUProfile()
			if err := cpuOut.Close(); err != nil {
				return fmt.Errorf("prof: %w", err)
			}
		}
		if memFile != "" {
			out, err := os.Create(memFile)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(out, 0); err != nil {
				out.Close()
				return fmt.Errorf("prof: write heap profile: %w", err)
			}
			// A failed Close can mean a truncated profile.
			if err := out.Close(); err != nil {
				return fmt.Errorf("prof: %w", err)
			}
		}
		return nil
	}, nil
}
