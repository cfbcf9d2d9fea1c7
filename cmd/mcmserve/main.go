// Command mcmserve is simulation-as-a-service in front of the durable run
// store: clients POST batched sweep manifests, the server deduplicates
// identical cells across all clients (by content-derived job IDs, one live
// record per ID, plus the content-addressed store), simulates what is
// genuinely new, and serves warm cells instantly.
//
// Robustness contract:
//
//   - Every result is written atomically and SHA-256 verified on read; a
//     torn or corrupted artifact is quarantined and recomputed, never
//     served (see internal/runstore).
//   - An unreadable store degrades to compute: jobs still run, the client
//     never sees a 500 because a disk failed.
//   - The job queue is bounded; a full queue answers 429 with a
//     Retry-After derived from the actual backlog rather than accepting
//     unbounded memory.
//   - GET /readyz is liveness-distinct: 503 (with Retry-After) while
//     draining or while the queue is saturated, so pools and load
//     balancers stop routing to a server that is leaving; /healthz keeps
//     answering 200.
//   - SIGTERM flips /readyz first, then drains gracefully: in-flight jobs
//     finish, queued jobs persist to <store>/pending.json (resumed by the
//     next server), and the process exits 0.
//   - A deterministic job failure (panic, budget, invariant — the classes
//     a retry anywhere would reproduce) poisons the job on its first
//     attempt: it is quarantined in <store>/poisoned.json, shared by every
//     server on the store, and resubmissions answer instantly with the
//     structured failure instead of burning another backend.
//
// Usage:
//
//	mcmserve -store /var/lib/mcmgpu -addr :8037
//	mcmsim -dump-config mcm-baseline > sys.json
//	curl -s -X POST localhost:8037/v1/batches -d \
//	  '{"jobs":[{"system":'"$(cat sys.json)"',"workload":"Stream","scale":0.1}]}'
//	curl -s localhost:8037/v1/batches/b000001/watch   # live NDJSON progress
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/runstore"
)

func main() {
	var (
		addr     = flag.String("addr", ":8037", "listen address")
		storeDir = flag.String("store", "", "durable run store directory (empty = memory-only, results die with the process)")
		workers  = flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		queueCap = flag.Int("queue", 256, "maximum queued jobs; a full queue answers 429")
	)
	flag.Parse()

	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	// The fault plan (MCMGPU_FAULT) arms the whole stack consistently:
	// store faults reach the store tier, engine faults reach every worker
	// runner AND job-identity derivation, so a faulted cell can never
	// collide with an unfaulted one.
	plan, err := faultinject.FromEnv()
	if err != nil {
		logf("mcmserve: %v", err)
		os.Exit(2)
	}
	if plan.IsNet() {
		logf("mcmserve: net fault plans belong on a chaosproxy, not the server; unset MCMGPU_FAULT")
		os.Exit(2)
	}

	var store *runstore.Store
	if *storeDir != "" {
		store, err = runstore.Open(*storeDir, runstore.WithLogf(logf), runstore.WithFault(plan))
		if err != nil {
			// Degrade, don't die: an unopenable store costs durability,
			// not service. Results are still computed and deduplicated
			// in-process.
			logf("mcmserve: store unavailable, degrading to memory-only: %v", err)
			store = nil
		}
	}

	n := *workers
	if n <= 0 {
		n = defaultWorkers()
	}
	s := newServerOpts(serverOptions{
		Store:    store,
		Workers:  n,
		QueueCap: *queueCap,
		Logf:     logf,
		Fault:    plan,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.mux}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		sig := <-sigc
		logf("mcmserve: %v: draining (in-flight jobs finish, queued jobs persist)", sig)
		s.drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		close(done)
	}()

	logf("mcmserve: listening on %s (store %s, %d workers, queue %d)",
		*addr, storeDesc(store), n, *queueCap)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logf("mcmserve: %v", err)
		os.Exit(1)
	}
	<-done
}

func storeDesc(store *runstore.Store) string {
	if store == nil {
		return "none (memory-only)"
	}
	return store.Dir()
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
