package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmgpu/internal/chaosproxy"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore/client"
)

// TestChaosEndToEnd is the execution plane's survival proof: a pool over
// three backends sharing one store — one killed right after accepting its
// shard, one reachable only through a chaos proxy injecting the full net-*
// fault family — still produces results byte-identical to a clean local
// run, with every distinct cell simulated exactly once across the fleet
// and every armed fault provably fired.
func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-backend chaos e2e in -short mode")
	}
	dir := t.TempDir()

	// Backend A: healthy. Backend B: healthy but fronted by the chaos
	// proxy. Backend C: accepts submissions but has no workers, and its
	// HTTP listener is killed shortly after its first accepted batch — the
	// pool must fail C's shard over to A and B.
	sA := newServerOpts(serverOptions{Store: mustOpenStore(t, dir), Workers: 2, QueueCap: 64, Logf: t.Logf})
	tsA := httptest.NewServer(sA.mux)
	defer tsA.Close()

	sB := newServerOpts(serverOptions{Store: mustOpenStore(t, dir), Workers: 2, QueueCap: 64, Logf: t.Logf})
	tsB := httptest.NewServer(sB.mux)
	defer tsB.Close()

	// Each plan targets its own endpoint so the fault windows are
	// positions in independent request sequences — deterministic no matter
	// how submissions, watches, and fetches interleave:
	//   - B's first submission answers 429 (client honors Retry-After),
	//   - B's first watch stream is severed, the second truncated mid-NDJSON,
	//   - B's first result fetch answers 503, the retry eats a latency spike.
	plans, err := faultinject.ParseList(
		"net-429@0#1:/v1/batches," +
			"net-drop@0#1:/watch," +
			"net-truncate@1#1:/watch," +
			"net-5xx@0#1:/result," +
			"net-latency@1#1:/result")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := chaosproxy.New(tsB.URL, plans)
	if err != nil {
		t.Fatal(err)
	}
	proxy.Logf = t.Logf
	defer proxy.Close()
	tsProxy := httptest.NewServer(proxy)
	defer tsProxy.Close()

	sC := newServerOpts(serverOptions{Store: mustOpenStore(t, dir), QueueCap: 64, Logf: t.Logf})
	var (
		tsC      *httptest.Server
		killOnce sync.Once
	)
	tsC = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sC.mux.ServeHTTP(w, r)
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/batches") {
			killOnce.Do(func() {
				go func() {
					time.Sleep(50 * time.Millisecond)
					tsC.CloseClientConnections()
					tsC.Close()
				}()
			})
		}
	}))
	defer tsC.Close()

	m := testManifest(t, "Stream", "CFD", "GEMM", "CoMD", "SSSP", "BFS")
	pool := client.NewPool(
		[]string{tsA.URL, tsProxy.URL, tsC.URL},
		&client.Client{
			Retries:          3,
			Backoff:          5 * time.Millisecond,
			WatchIdleTimeout: 5 * time.Second,
			Logf:             t.Logf,
		})
	pool.ProbeTimeout = 500 * time.Millisecond
	pool.ProbeInterval = 100 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, statuses, err := pool.Run(ctx, m)
	if err != nil {
		t.Fatalf("pool run under chaos: %v", err)
	}
	for i, js := range statuses {
		if js.State != client.StateDone || results[i] == nil {
			t.Fatalf("job %d (%s): %+v, want done with result", i, m.Jobs[i].Workload, js)
		}
	}

	// Byte-identical to a clean local run of the same manifest.
	var jobs []runner.Job
	for _, jr := range m.Jobs {
		j, err := parseJob(jr)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	local, err := (&runner.Runner{Workers: 2, Cache: runner.NewCache()}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		want, _ := json.Marshal(local[i])
		got, _ := json.Marshal(results[i])
		if string(want) != string(got) {
			t.Fatalf("job %d (%s): chaos-run result differs from local run\nlocal:  %s\nremote: %s",
				i, m.Jobs[i].Workload, want, got)
		}
	}

	// Zero duplicated work: across all three backends, exactly one
	// simulation and one store write per distinct cell.
	sims := computed(sA) + computed(sB) + computed(sC)
	if sims != len(jobs) {
		t.Fatalf("fleet ran %d simulations for %d distinct cells", sims, len(jobs))
	}
	puts := sA.store.Stats().Puts + sB.store.Stats().Puts + sC.store.Stats().Puts
	if puts != uint64(len(jobs)) {
		t.Fatalf("fleet persisted %d results for %d distinct cells", puts, len(jobs))
	}

	// The damage was real: the dead backend forced a failover, and every
	// armed fault kind fired at least once (anti-vacuity).
	ps := pool.Stats()
	if ps.Failovers == 0 || ps.Resubmits == 0 {
		t.Fatalf("killed backend caused no failover: %+v", ps)
	}
	st := proxy.Stats()
	for _, kind := range []string{"net-429", "net-drop", "net-truncate", "net-5xx", "net-latency"} {
		if st.Injected[kind] == 0 {
			t.Fatalf("fault %s armed but never injected (vacuous): %+v", kind, st)
		}
	}
	t.Logf("chaos e2e: pool stats %+v, proxy stats %+v", ps, st)
}
