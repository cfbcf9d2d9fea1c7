package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcmgpu/internal/chaosproxy"
	"mcmgpu/internal/core"
	"mcmgpu/internal/faultinject"
)

// fakeStore is the shared durable tier several fake backends sit over,
// the way real mcmserve instances share one run store: any backend can
// serve any computed job ID.
type fakeStore struct {
	mu      sync.Mutex
	results map[string]*core.Result
}

func newFakeStore() *fakeStore {
	return &fakeStore{results: map[string]*core.Result{}}
}

// fakeBackend is a minimal mcmserve: content-derived job IDs, batch
// snapshots, results served from the shared fake store. Knobs let tests
// script slow jobs, slow results and sudden death.
type fakeBackend struct {
	store *fakeStore
	ts    *httptest.Server

	mu      sync.Mutex
	batches map[string][]string // batch id → job ids
	jobs    map[string]fakeJob
	nbatch  int
	submits atomic.Int32
	polls   atomic.Int32

	// resultDelay stalls every result fetch — the hedge-timer trigger.
	resultDelay time.Duration
	// jobLatency is how long a job "runs" before it is done.
	jobLatency time.Duration
	// dieAfterSubmit closes the listener right after the first successful
	// submit, mid-batch — the killed-backend scenario.
	dieAfterSubmit bool
}

type fakeJob struct {
	id, workload string
	doneAt       time.Time
}

func newFakeBackend(t *testing.T, store *fakeStore) *fakeBackend {
	t.Helper()
	b := &fakeBackend{
		store:   store,
		batches: map[string][]string{},
		jobs:    map[string]fakeJob{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	mux.HandleFunc("/v1/batches", b.handleSubmit)
	mux.HandleFunc("/v1/batches/", b.handleBatch)
	mux.HandleFunc("/v1/jobs/", b.handleJob)
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

func fakeID(j JobRequest) string {
	sum := sha256.Sum256([]byte(jobKey(j)))
	return hex.EncodeToString(sum[:8])
}

func (b *fakeBackend) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var m Manifest
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		http.Error(w, `{"error":"bad manifest"}`, 400)
		return
	}
	b.mu.Lock()
	b.nbatch++
	id := fmt.Sprintf("b%d", b.nbatch)
	var ids []string
	for _, j := range m.Jobs {
		jid := fakeID(j)
		ids = append(ids, jid)
		if _, ok := b.jobs[jid]; !ok {
			b.jobs[jid] = fakeJob{id: jid, workload: j.Workload, doneAt: time.Now().Add(b.jobLatency)}
		}
	}
	b.batches[id] = ids
	b.mu.Unlock()
	b.submits.Add(1)
	json.NewEncoder(w).Encode(b.status(id))
	if b.dieAfterSubmit {
		go b.ts.CloseClientConnections()
		go b.ts.Close()
	}
}

// status materializes a batch snapshot; jobs flip to done (and their
// results land in the shared store) once their latency elapses.
func (b *fakeBackend) status(id string) *BatchStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	bs := &BatchStatus{ID: id, Done: true}
	for _, jid := range b.batches[id] {
		j := b.jobs[jid]
		js := JobStatus{ID: jid, Workload: j.workload, State: StateRunning}
		if !time.Now().Before(j.doneAt) {
			js.State = StateDone
			js.Source = SourceCompute
			b.store.mu.Lock()
			if _, ok := b.store.results[jid]; !ok {
				b.store.results[jid] = &core.Result{Workload: j.workload, Cycles: 1000}
			}
			b.store.mu.Unlock()
		} else {
			bs.Done = false
		}
		bs.Jobs = append(bs.Jobs, js)
	}
	return bs
}

func (b *fakeBackend) handleBatch(w http.ResponseWriter, r *http.Request) {
	b.polls.Add(1)
	rest := r.URL.Path[len("/v1/batches/"):]
	b.mu.Lock()
	_, ok := b.batches[rest]
	b.mu.Unlock()
	if !ok {
		http.Error(w, `{"error":"no such batch"}`, 404)
		return
	}
	json.NewEncoder(w).Encode(b.status(rest))
}

func (b *fakeBackend) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := r.URL.Path[len("/v1/jobs/"):]
	if n := len(rest) - len("/result"); n > 0 && rest[n:] == "/result" {
		id := rest[:n]
		if b.resultDelay > 0 {
			select {
			case <-time.After(b.resultDelay):
			case <-r.Context().Done():
				return
			}
		}
		b.store.mu.Lock()
		res, ok := b.store.results[id]
		b.store.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"no result"}`, 404)
			return
		}
		json.NewEncoder(w).Encode(res)
		return
	}
	http.Error(w, `{"error":"no such job"}`, 404)
}

func poolManifest(n int) Manifest {
	var m Manifest
	for i := 0; i < n; i++ {
		m.Jobs = append(m.Jobs, JobRequest{
			System:   json.RawMessage(fmt.Sprintf(`{"modules":%d}`, i+1)),
			Workload: fmt.Sprintf("wl%d", i),
		})
	}
	return m
}

func fastPool(urls ...string) *Pool {
	p := NewPool(urls, &Client{Retries: 3, Backoff: 5 * time.Millisecond})
	p.ProbeTimeout = 500 * time.Millisecond
	p.ProbeInterval = 100 * time.Millisecond
	return p
}

func checkRun(t *testing.T, res []*core.Result, sts []JobStatus, err error, n int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n || len(sts) != n {
		t.Fatalf("%d results / %d statuses, want %d", len(res), len(sts), n)
	}
	for i := range res {
		if sts[i].State != StateDone || res[i] == nil {
			t.Fatalf("job %d: state %q result %v, want done with result", i, sts[i].State, res[i])
		}
	}
}

// TestPoolSingleBackend: the degenerate pool is just a client. Its jobs
// finish at submit, so the shard is never polled.
func TestPoolSingleBackend(t *testing.T) {
	b := newFakeBackend(t, newFakeStore())
	p := fastPool(b.ts.URL)
	res, sts, err := p.Run(context.Background(), poolManifest(3))
	checkRun(t, res, sts, err, 3)
	if st := p.Stats(); st.Failovers != 0 || st.Resubmits != 0 {
		t.Fatalf("healthy single-backend run reported faults: %+v", st)
	}
	if n := b.polls.Load(); n != 0 {
		t.Fatalf("a shard done at submit was polled %d times", n)
	}
}

// TestPoolFailoverOnBackendDeath: a backend that accepts a shard and dies
// mid-batch loses its jobs to the survivor on the next round. The shared
// store makes the resubmission idempotent.
func TestPoolFailoverOnBackendDeath(t *testing.T) {
	store := newFakeStore()
	dying := newFakeBackend(t, store)
	dying.dieAfterSubmit = true
	dying.jobLatency = time.Hour // its jobs would never finish anyway
	healthy := newFakeBackend(t, store)
	p := fastPool(dying.ts.URL, healthy.ts.URL)
	res, sts, err := p.Run(context.Background(), poolManifest(4))
	checkRun(t, res, sts, err, 4)
	st := p.Stats()
	if st.Failovers == 0 {
		t.Fatalf("killed backend produced no failover: %+v", st)
	}
	if st.Resubmits == 0 {
		t.Fatalf("killed backend's jobs were not resubmitted: %+v", st)
	}
}

// TestPoolSurvivesChaos drives a whole run through the chaos proxy with a
// multi-fault plan — dropped submit, 5xx burst, truncated bodies, a 429 —
// and requires both a clean completion and proof that every armed fault
// actually fired.
func TestPoolSurvivesChaos(t *testing.T) {
	b := newFakeBackend(t, newFakeStore())
	b.jobLatency = 200 * time.Millisecond // still running at submit, so polled
	// Per-endpoint filters keep the windows deterministic no matter how
	// many requests the run makes in total: the first batch poll drops,
	// the first submit gets a 429, the first two result fetches 503, the
	// fourth result fetch is truncated mid-body.
	plans, err := faultinject.ParseList(
		"net-429@0#1:/v1/batches,net-drop@0#1:/v1/batches/b,net-5xx@0#2:/result,net-truncate@3#1:/result")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := chaosproxy.New(b.ts.URL, plans)
	if err != nil {
		t.Fatal(err)
	}
	proxy.Logf = t.Logf
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	defer proxy.Close()

	p := fastPool(ts.URL)
	res, sts, err := p.Run(context.Background(), poolManifest(5))
	checkRun(t, res, sts, err, 5)
	st := proxy.Stats()
	for _, kind := range []string{"net-drop", "net-5xx", "net-truncate", "net-429"} {
		if st.Injected[kind] == 0 {
			t.Errorf("fault %s armed but never injected (vacuous): %+v", kind, st)
		}
	}
}

// TestPoolHedgesSlowResults: a backend that stalls result fetches gets
// hedged against its peer; the run finishes fast and Hedged counts it.
func TestPoolHedgesSlowResults(t *testing.T) {
	store := newFakeStore()
	slow := newFakeBackend(t, store)
	slow.resultDelay = 2 * time.Second
	fast := newFakeBackend(t, store)
	// Only the slow backend gets a shard: a single-job manifest keeps the
	// sharding deterministic enough to force the hedge.
	p := fastPool(slow.ts.URL, fast.ts.URL)
	p.HedgeAfter = 50 * time.Millisecond

	start := time.Now()
	res, sts, err := p.Run(context.Background(), poolManifest(2))
	checkRun(t, res, sts, err, 2)
	if el := time.Since(start); el > 1500*time.Millisecond {
		t.Fatalf("run took %v; hedging should have beaten the 2s result stall", el)
	}
	if st := p.Stats(); st.Hedged == 0 {
		t.Fatalf("slow result fetch fired no hedge: %+v", st)
	}
}

// TestPoolRoutesAroundBlackhole: one backend is fully black-holed (every
// request hangs). Probes time out, its breaker accumulates failures, and
// the run completes through the healthy peer without ever submitting to
// the black hole.
func TestPoolRoutesAroundBlackhole(t *testing.T) {
	store := newFakeStore()
	holed := newFakeBackend(t, store)
	plans, err := faultinject.ParseList("net-blackhole@0")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := chaosproxy.New(holed.ts.URL, plans)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	defer proxy.Close()
	healthy := newFakeBackend(t, store)

	p := fastPool(ts.URL, healthy.ts.URL)
	p.ProbeTimeout = 100 * time.Millisecond
	res, sts, err := p.Run(context.Background(), poolManifest(3))
	checkRun(t, res, sts, err, 3)
	if holed.submits.Load() != 0 {
		t.Fatalf("black-holed backend received %d submits", holed.submits.Load())
	}
	if st := proxy.Stats(); st.Injected["net-blackhole"] == 0 {
		t.Fatalf("blackhole armed but never exercised: %+v", st)
	}
}

// TestFollowResumesAfterCuts: the first two polls of a running batch are
// truncated mid-body; the client's retries absorb both and the follow
// still observes the batch to completion.
func TestFollowResumesAfterCuts(t *testing.T) {
	b := newFakeBackend(t, newFakeStore())
	b.jobLatency = 300 * time.Millisecond
	plans, err := faultinject.ParseList("net-truncate@0#2:/v1/batches/b")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := chaosproxy.New(b.ts.URL, plans)
	if err != nil {
		t.Fatal(err)
	}
	proxy.Logf = t.Logf
	proxy.TruncateBytes = 16
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	defer proxy.Close()

	c := &Client{BaseURL: ts.URL, Retries: 4, Backoff: 10 * time.Millisecond, Logf: t.Logf}
	bs, err := c.Submit(context.Background(), poolManifest(2))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := follow(context.Background(), c, bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("follow returned %d jobs, want 2", len(jobs))
	}
	for _, js := range jobs {
		if js.State != StateDone {
			t.Fatalf("job %s finished %q", js.ID, js.State)
		}
	}
	if st := proxy.Stats(); st.Injected["net-truncate"] != 2 {
		t.Fatalf("want 2 truncated polls, got %+v", st)
	}
}

// TestFollowTerminalStatesStick: a poll that lands on a view behind one
// already seen must not regress a finished job to queued.
func TestFollowTerminalStatesStick(t *testing.T) {
	// A hand-rolled backend: the first poll reports j1 done; every later
	// one reports it queued again (a stale view) beside a done j2. The
	// follow must surface done for both.
	var polls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/batches/b1", func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) == 1 {
			fmt.Fprintln(w, `{"id":"b1","jobs":[{"id":"j1","state":"done"},{"id":"j2","state":"running"}],"done":false}`)
			return
		}
		fmt.Fprintln(w, `{"id":"b1","jobs":[{"id":"j1","state":"queued"},{"id":"j2","state":"done"}],"done":false}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Retries: 3, Backoff: 5 * time.Millisecond, Logf: t.Logf}
	sub := &BatchStatus{ID: "b1", Jobs: []JobStatus{{ID: "j1", State: StateQueued}, {ID: "j2", State: StateQueued}}}
	jobs, err := follow(context.Background(), c, sub)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range jobs {
		if js.State != StateDone {
			t.Fatalf("job %s regressed to %q after a stale poll", js.ID, js.State)
		}
	}
	if n := polls.Load(); n != 2 {
		t.Fatalf("%d polls, want 2", n)
	}
}

// restartedBackend is a backend that restarts under its URL right after
// accepting the pool's first batch. The new process numbers its batches
// afresh, and its first one holds another client's drained jobs, all done:
// every poll of the pool's batch ID answers with that foreign batch. The
// pool's resubmission is accepted and done at once, and results are served
// for every job ID, the foreign ones included. With miscount set, the
// first submit answer itself is wrong instead: done, with the first
// foreign job listed after the pool's own.
func restartedBackend(t *testing.T, foreign int, miscount bool) *httptest.Server {
	t.Helper()
	other := &BatchStatus{ID: "b000001", Done: true}
	results := map[string]*core.Result{}
	for i := 0; i < foreign; i++ {
		id := fmt.Sprint("other", i)
		other.Jobs = append(other.Jobs, JobStatus{ID: id, State: StateDone})
		results[id] = &core.Result{Workload: id, Cycles: 1}
	}
	var (
		mu      sync.Mutex
		submits int
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /v1/batches", func(w http.ResponseWriter, r *http.Request) {
		var m Manifest
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, `{"error":"bad manifest"}`, 400)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		submits++
		bs := BatchStatus{ID: fmt.Sprintf("b%06d", submits), Done: submits > 1 || miscount}
		for _, j := range m.Jobs {
			js := JobStatus{ID: fakeID(j), State: StateQueued}
			if bs.Done {
				js.State = StateDone
				results[js.ID] = &core.Result{Workload: j.Workload, Cycles: 1}
			}
			bs.Jobs = append(bs.Jobs, js)
		}
		if submits == 1 && miscount {
			bs.Jobs = append(bs.Jobs, other.Jobs[0])
		}
		json.NewEncoder(w).Encode(bs)
	})
	mux.HandleFunc("GET /v1/batches/", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(other)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		res, ok := results[r.PathValue("id")]
		mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"no result"}`, 404)
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// checkForeignBatchRefused runs a 2-job manifest against a backend whose
// first batch is swapped for a foreign one: the shard must fail over, and
// every job must end with its own result after the resubmission.
func checkForeignBatchRefused(t *testing.T, foreign int, miscount bool) {
	t.Helper()
	p := fastPool(restartedBackend(t, foreign, miscount).URL)
	m := poolManifest(2)
	res, sts, err := p.Run(context.Background(), m)
	checkRun(t, res, sts, err, 2)
	for i, r := range res {
		if r.Workload != m.Jobs[i].Workload {
			t.Fatalf("job %d (%s) got the result of %s", i, m.Jobs[i].Workload, r.Workload)
		}
	}
	if st := p.Stats(); st.Failovers != 1 || st.Resubmits != 2 {
		t.Fatalf("foreign batch: %+v, want 1 failover and 2 resubmits", st)
	}
}

// TestFollowRejectsLongerForeignBatch: a foreign batch with more jobs than
// the shard must fail the shard over, not index past it.
func TestFollowRejectsLongerForeignBatch(t *testing.T) {
	checkForeignBatchRefused(t, 3, false)
}

// TestFollowRejectsSameLengthForeignBatch: a foreign batch as long as the
// shard must fail the shard over, not hand its jobs the foreign results.
func TestFollowRejectsSameLengthForeignBatch(t *testing.T) {
	checkForeignBatchRefused(t, 2, false)
}

// TestFollowRejectsMiscountedSubmit: a submit answer listing more jobs
// than were submitted must fail the shard over, not index past it.
func TestFollowRejectsMiscountedSubmit(t *testing.T) {
	checkForeignBatchRefused(t, 1, true)
}
