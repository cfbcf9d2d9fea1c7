package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/runstore"
	"mcmgpu/internal/runstore/client"
)

// testManifest builds a small manifest over the baseline MCM at a reduced
// scale: cheap enough for unit tests, real enough to exercise the whole
// submit → simulate → persist → serve pipeline.
func testManifest(t *testing.T, workloads ...string) client.Manifest {
	t.Helper()
	var sys bytes.Buffer
	if err := config.BaselineMCM().WriteJSON(&sys); err != nil {
		t.Fatal(err)
	}
	var m client.Manifest
	for _, wl := range workloads {
		m.Jobs = append(m.Jobs, client.JobRequest{
			System:   json.RawMessage(sys.String()),
			Workload: wl,
			Scale:    0.05,
		})
	}
	return m
}

func testClient(t *testing.T, s *server) (*client.Client, func()) {
	t.Helper()
	ts := httptest.NewServer(s.mux)
	c := &client.Client{
		BaseURL: ts.URL,
		Retries: 2,
		Backoff: 5 * time.Millisecond,
		Logf:    t.Logf,
	}
	return c, ts.Close
}

// call sends one bodiless request to an endpoint the Go client has no
// method for, failing the test unless it answers 200, and decodes the JSON
// answer into out.
func call(t *testing.T, method, url string, out interface{}) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d, want 200", method, url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
}

func mustOpenStore(t *testing.T, dir string) *runstore.Store {
	t.Helper()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// computed counts the jobs a server simulated itself: those done with
// source compute. s.jobs holds one record per job ID, so this is the
// server's number of simulations.
func computed(s *server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.state == client.StateDone && j.source == client.SourceCompute {
			n++
		}
	}
	return n
}

// TestSubmitComputeThenWarm is the service's dedupe contract end to end:
// a cold submit computes, an identical resubmit to the same process is
// instantly done, and a fresh server over the same store serves the whole
// batch as store hits with zero new simulations.
func TestSubmitComputeThenWarm(t *testing.T) {
	dir := t.TempDir()
	s := newServerOpts(serverOptions{Store: mustOpenStore(t, dir), Workers: 2, QueueCap: 16, Logf: t.Logf})
	c, stop := testClient(t, s)
	defer stop()

	m := testManifest(t, "Stream", "CFD")
	results, statuses, err := client.NewPool([]string{c.BaseURL}, c).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i, js := range statuses {
		if js.State != client.StateDone || js.Source != client.SourceCompute {
			t.Fatalf("cold job %d: %+v, want done/compute", i, js)
		}
		if results[i] == nil {
			t.Fatalf("cold job %d has no result", i)
		}
	}
	puts := s.store.Stats().Puts
	if puts != 2 {
		t.Fatalf("cold run persisted %d results, want 2", puts)
	}
	if sims := computed(s); sims != 2 {
		t.Fatalf("cold run simulated %d cells, want 2", sims)
	}

	// Same process, identical manifest: already-done records, no queue
	// traffic, no new store writes.
	bs, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Done {
		t.Fatalf("resubmit to the same process was not instantly done: %+v", bs)
	}
	if got := s.store.Stats().Puts; got != puts {
		t.Fatalf("resubmit wrote %d new store entries", got-puts)
	}

	// A restarted server (fresh process state, same store): every cell is
	// a store hit, zero simulations.
	s2 := newServerOpts(serverOptions{Store: mustOpenStore(t, dir), Workers: 2, QueueCap: 16, Logf: t.Logf})
	c2, stop2 := testClient(t, s2)
	defer stop2()
	warm, warmStatuses, err := client.NewPool([]string{c2.BaseURL}, c2).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i, js := range warmStatuses {
		if js.State != client.StateDone || js.Source != client.SourceStore {
			t.Fatalf("warm job %d: %+v, want done/store", i, js)
		}
		if !reflect.DeepEqual(warm[i], results[i]) {
			t.Fatalf("warm job %d result differs from cold compute", i)
		}
	}
	if st := s2.store.Stats(); st.Puts != 0 || st.Hits == 0 {
		t.Fatalf("restarted server did not serve from the store: %+v", st)
	}
	if sims := computed(s2); sims != 0 {
		t.Fatalf("restarted server ran %d simulations on a warm store", sims)
	}
}

// TestColdJobReadsStoreOnce pins a cold job's store traffic: the submit
// probe misses, the worker reads the store once more and misses, and the
// computed result is put once, and a resubmit of the done cell reads
// nothing more. A cell the store gains after the submit probe is served by
// the worker's read, with source store and no simulation.
func TestColdJobReadsStoreOnce(t *testing.T) {
	s := newServerOpts(serverOptions{Store: mustOpenStore(t, t.TempDir()), Workers: 1, QueueCap: 16, Logf: t.Logf})
	c, stop := testClient(t, s)
	defer stop()
	defer s.drain()
	m := testManifest(t, "Stream")
	results, statuses, err := client.NewPool([]string{c.BaseURL}, c).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if js := statuses[0]; js.State != client.StateDone || js.Source != client.SourceCompute {
		t.Fatalf("cold job: %+v, want done/compute", js)
	}
	if st := s.store.Stats(); st.Hits != 0 || st.Misses != 2 || st.Puts != 1 {
		t.Fatalf("one cold job: %d hits, %d misses, %d puts; want 0, 2, 1", st.Hits, st.Misses, st.Puts)
	}

	// A resubmit of the done cell is answered from its live record, with
	// the record's source, and reads nothing from the store.
	again, _, err := s.submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if js := again.Jobs[0]; !again.Done || js.State != client.StateDone || js.Source != client.SourceCompute {
		t.Fatalf("resubmitted done job: %+v, want done/compute", js)
	}
	if st := s.store.Stats(); st.Hits != 0 || st.Misses != 2 || st.Puts != 1 {
		t.Fatalf("a resubmit of a held cell read the store: %d hits, %d misses, %d puts; want 0, 2, 1", st.Hits, st.Misses, st.Puts)
	}

	// No worker runs until the store holds the cell the submit probe missed.
	s2 := newServerOpts(serverOptions{Store: mustOpenStore(t, t.TempDir()), QueueCap: 16, Logf: t.Logf})
	defer s2.drain()
	bs, _, err := s2.submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Done {
		t.Fatalf("a job submitted to an empty store is already done: %+v", bs)
	}
	id := bs.Jobs[0].ID
	s2.mu.Lock()
	key := s2.jobs[id].key
	s2.mu.Unlock()
	if err := s2.store.Put(key, results[0], nil); err != nil {
		t.Fatal(err)
	}
	s2.startWorkers(1)
	deadline := time.Now().Add(30 * time.Second)
	for {
		s2.mu.Lock()
		js := s2.jobs[id].statusLocked()
		s2.mu.Unlock()
		if client.Terminal(js.State) {
			if js.State != client.StateDone || js.Source != client.SourceStore {
				t.Fatalf("job filled in the store after submit: %+v, want done/store", js)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 30 s", js.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sims := computed(s2); sims != 0 {
		t.Fatalf("the worker simulated %d cells the store held", sims)
	}
	if st := s2.store.Stats(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("submit probe then worker hit: %d hits, %d misses, %d puts; want 1, 1, 1", st.Hits, st.Misses, st.Puts)
	}
}

// TestResultAcrossRestart serves a result by content-derived job ID from a
// server that never saw the submission — the GetByID path.
func TestResultAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := newServerOpts(serverOptions{Store: mustOpenStore(t, dir), Workers: 1, QueueCap: 16, Logf: t.Logf})
	c, stop := testClient(t, s)

	results, statuses, err := client.NewPool([]string{c.BaseURL}, c).Run(context.Background(), testManifest(t, "Stream"))
	if err != nil {
		t.Fatal(err)
	}
	stop()
	id := statuses[0].ID

	s2 := newServerOpts(serverOptions{Store: mustOpenStore(t, dir), Workers: 1, QueueCap: 16, Logf: t.Logf})
	c2, stop2 := testClient(t, s2)
	defer stop2()
	got, err := c2.Result(context.Background(), id)
	if err != nil {
		t.Fatalf("restarted server cannot serve result %s: %v", id, err)
	}
	if !reflect.DeepEqual(got, results[0]) {
		t.Fatal("result served across restart differs from the original")
	}
}

// TestQueueFullRejects asserts the bounded queue answers 429 without
// accepting any of the batch — atomically, so a retried submission cannot
// double-enqueue half a manifest.
func TestQueueFullRejects(t *testing.T) {
	s := newServerOpts(serverOptions{QueueCap: 1, Logf: t.Logf}) // no workers: nothing drains the queue
	_, code, err := s.submit(testManifest(t, "Stream", "CFD"))
	if err == nil || code != http.StatusTooManyRequests {
		t.Fatalf("overfull submit: code %d err %v, want 429", code, err)
	}
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	if depth != 0 {
		t.Fatalf("rejected batch left %d jobs in the queue", depth)
	}
	if _, code, err := s.submit(testManifest(t, "Stream")); err != nil || code != http.StatusOK {
		t.Fatalf("within-bound submit failed: code %d err %v", code, err)
	}
}

// TestSubmitValidation rejects malformed manifests with 400s.
func TestSubmitValidation(t *testing.T) {
	s := newServerOpts(serverOptions{QueueCap: 16, Logf: t.Logf})
	if _, code, _ := s.submit(client.Manifest{}); code != http.StatusBadRequest {
		t.Fatalf("empty manifest: code %d, want 400", code)
	}
	m := testManifest(t, "no-such-workload")
	if _, code, _ := s.submit(m); code != http.StatusBadRequest {
		t.Fatalf("unknown workload: code %d, want 400", code)
	}
	m = testManifest(t, "Stream")
	m.Jobs[0].System = json.RawMessage(`{"modules": -3`)
	if _, code, _ := s.submit(m); code != http.StatusBadRequest {
		t.Fatalf("bad config JSON: code %d, want 400", code)
	}
}

// TestCancelQueuedJob cancels a job before any worker takes it.
func TestCancelQueuedJob(t *testing.T) {
	s := newServerOpts(serverOptions{QueueCap: 16, Logf: t.Logf})
	c, stop := testClient(t, s)
	defer stop()
	bs, err := c.Submit(context.Background(), testManifest(t, "Stream"))
	if err != nil {
		t.Fatal(err)
	}
	var js client.JobStatus
	call(t, http.MethodPost, c.BaseURL+"/v1/jobs/"+bs.Jobs[0].ID+"/cancel", &js)
	if js.State != client.StateCanceled {
		t.Fatalf("canceled job is %q", js.State)
	}
	final, err := c.Batch(context.Background(), bs.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.Jobs[0].State != client.StateCanceled {
		t.Fatalf("batch with only a canceled job: %+v, want done and canceled", final)
	}
	// A worker starting later must skip the canceled job, not run it.
	s.startWorkers(1)
	time.Sleep(50 * time.Millisecond)
	if final, err = c.Batch(context.Background(), bs.ID); err != nil {
		t.Fatal(err)
	}
	if got := final.Jobs[0].State; got != client.StateCanceled {
		t.Fatalf("worker resurrected a canceled job: %q", got)
	}
}

// TestBatchCancelRefcounting: a job referenced by two batches survives one
// batch's cancellation and dies with the second — one client's cancel can
// never kill a cell another client still wants.
func TestBatchCancelRefcounting(t *testing.T) {
	s := newServerOpts(serverOptions{QueueCap: 16, Logf: t.Logf})
	c, stop := testClient(t, s)
	defer stop()
	m := testManifest(t, "Stream")
	b1, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	id := b1.Jobs[0].ID
	if b2.Jobs[0].ID != id {
		t.Fatalf("identical submissions got different IDs: %s vs %s", id, b2.Jobs[0].ID)
	}
	var bs client.BatchStatus
	call(t, http.MethodPost, c.BaseURL+"/v1/batches/"+b1.ID+"/cancel", &bs)
	if got := bs.Jobs[0].State; got != client.StateQueued {
		t.Fatalf("job canceled while another batch still references it: %q", got)
	}
	call(t, http.MethodPost, c.BaseURL+"/v1/batches/"+b2.ID+"/cancel", &bs)
	if got := bs.Jobs[0].State; got != client.StateCanceled {
		t.Fatalf("job not canceled after losing its last reference: %q", got)
	}
}

// TestDrainPersistsQueueAndRecovers is the graceful-drain contract: queued
// jobs survive a drain as pending.json and the next server over the same
// store resumes and completes them.
func TestDrainPersistsQueueAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := newServerOpts(serverOptions{Store: mustOpenStore(t, dir), QueueCap: 16, Logf: t.Logf}) // no workers: jobs stay queued
	bs, code, err := s.submit(testManifest(t, "Stream", "CFD"))
	if err != nil {
		t.Fatalf("submit: code %d err %v", code, err)
	}
	if n := s.drain(); n != 2 {
		t.Fatalf("drain persisted %d jobs, want 2", n)
	}
	if _, err := os.Stat(filepath.Join(dir, pendingFile)); err != nil {
		t.Fatalf("no pending.json after drain: %v", err)
	}
	// Draining servers refuse new work.
	if _, code, _ := s.submit(testManifest(t, "GEMM")); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a submit (code %d)", code)
	}

	s2 := newServerOpts(serverOptions{Store: mustOpenStore(t, dir), Workers: 2, QueueCap: 16, Logf: t.Logf})
	c2, stop := testClient(t, s2)
	defer stop()
	deadline := time.Now().Add(30 * time.Second)
	for _, js := range bs.Jobs {
		for {
			var cur client.JobStatus
			call(t, http.MethodGet, c2.BaseURL+"/v1/jobs/"+js.ID, &cur)
			if cur.Done() {
				if cur.State != client.StateDone {
					t.Fatalf("recovered job %s finished %q: %s", js.ID, cur.State, cur.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("recovered job %s never finished (state %q)", js.ID, cur.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if _, err := c2.Result(context.Background(), js.ID); err != nil {
			t.Fatalf("recovered job %s has no result: %v", js.ID, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, pendingFile)); !os.IsNotExist(err) {
		t.Fatal("pending.json not consumed by recovery")
	}
}

// TestDegradedMemoryOnly: with no store at all the service still computes
// and serves results — durability is lost, availability is not.
func TestDegradedMemoryOnly(t *testing.T) {
	s := newServerOpts(serverOptions{Workers: 1, QueueCap: 16, Logf: t.Logf})
	c, stop := testClient(t, s)
	defer stop()
	results, statuses, err := client.NewPool([]string{c.BaseURL}, c).Run(context.Background(), testManifest(t, "Stream"))
	if err != nil {
		t.Fatal(err)
	}
	if statuses[0].State != client.StateDone || statuses[0].Source != client.SourceCompute {
		t.Fatalf("degraded job: %+v", statuses[0])
	}
	if results[0] == nil {
		t.Fatal("degraded job has no result")
	}
}

// TestReadyzDistinctFromHealthz: a draining or saturated server fails
// readiness (with a Retry-After) while still passing liveness — the
// signal a pool uses to route around it without declaring it dead.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	s := newServerOpts(serverOptions{QueueCap: 1, Logf: t.Logf}) // cap 1, no workers: easy to saturate
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("idle readyz = %d, want 200", resp.StatusCode)
	}

	// Saturate the queue: one queued job against cap 1.
	if _, code, err := s.submit(testManifest(t, "Stream")); err != nil || code != http.StatusOK {
		t.Fatalf("submit: code %d err %v", code, err)
	}
	resp := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated readyz has no Retry-After")
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated healthz = %d, want 200 (alive, just busy)", resp.StatusCode)
	}

	// Draining flips readiness too (fresh server so drain has no queue).
	s2 := newServerOpts(serverOptions{QueueCap: 16, Logf: t.Logf})
	ts2 := httptest.NewServer(s2.mux)
	defer ts2.Close()
	s2.drain()
	resp2, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp2.StatusCode)
	}
	resp2, err = http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", resp2.StatusCode)
	}
}

// TestRetryAfterDerivedFromBacklog: the 429 Retry-After grows with the
// backlog instead of the old hard-coded 1 second.
func TestRetryAfterDerivedFromBacklog(t *testing.T) {
	s := newServerOpts(serverOptions{QueueCap: 2, Logf: t.Logf}) // no workers: 1-worker estimate, 2-deep queue
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	if _, code, err := s.submit(testManifest(t, "Stream", "CFD")); err != nil || code != http.StatusOK {
		t.Fatalf("submit: code %d err %v", code, err)
	}
	m := testManifest(t, "GEMM")
	data, _ := json.Marshal(m)
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit = %d, want 429", resp.StatusCode)
	}
	// Backlog 2, estimated 1 worker → 1 + 2/1 = 3 seconds.
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3 (derived from backlog)", ra)
	}
}

// TestPoisonQuarantineLifecycle is the poisoned-job contract end to end:
// a deterministically failing cell is poisoned on its first attempt —
// simulated once and never requeued — quarantined with a structured
// error, persisted across a restart, and a resubmission to the successor
// fails instantly instead of rerunning.
func TestPoisonQuarantineLifecycle(t *testing.T) {
	dir := t.TempDir()
	plan, err := faultinject.Parse("panic@0:Stream")
	if err != nil {
		t.Fatal(err)
	}
	var (
		logMu sync.Mutex
		logs  []string
	)
	logf := func(format string, args ...interface{}) {
		line := fmt.Sprintf(format, args...)
		t.Log(line)
		logMu.Lock()
		logs = append(logs, line)
		logMu.Unlock()
	}
	s := newServerOpts(serverOptions{
		Store: mustOpenStore(t, dir), Workers: 1, QueueCap: 16,
		Logf: logf, Fault: plan,
	})
	c, stop := testClient(t, s)
	defer stop()

	m := testManifest(t, "Stream", "CFD")
	_, statuses, err := client.NewPool([]string{c.BaseURL}, c).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	poisonedJob, healthy := statuses[0], statuses[1]
	if poisonedJob.State != client.StateFailed || !poisonedJob.Poisoned {
		t.Fatalf("faulted job: %+v, want failed+poisoned", poisonedJob)
	}
	if poisonedJob.Attempts != 1 {
		t.Fatalf("poisoned after %d attempts, want 1", poisonedJob.Attempts)
	}
	if poisonedJob.ErrKind != "panic" {
		t.Fatalf("poisoned ErrKind = %q, want panic", poisonedJob.ErrKind)
	}
	if healthy.State != client.StateDone {
		t.Fatalf("unfaulted job: %+v, want done (poison must not spread)", healthy)
	}
	if _, err := os.Stat(filepath.Join(dir, poisonedFile)); err != nil {
		t.Fatalf("no %s after quarantine: %v", poisonedFile, err)
	}
	// One run: every run of a job ends in one outcome line, so the job's
	// log is its quarantine plus a single failure, with no requeue.
	logMu.Lock()
	var outcomes []string
	for _, line := range logs {
		if strings.Contains(line, "requeued") {
			t.Errorf("a job was requeued: %q", line)
		}
		if strings.HasPrefix(line, "mcmserve: job "+poisonedJob.ID+" ") {
			outcomes = append(outcomes, line)
		}
	}
	logMu.Unlock()
	if len(outcomes) != 2 || !strings.Contains(outcomes[0], "poisoned after 1 attempt:") ||
		!strings.HasSuffix(outcomes[1], " failed") {
		t.Fatalf("poisoned job's log %q, want one quarantine after 1 attempt and one failure", outcomes)
	}

	// A restarted server inherits the quarantine: the resubmission is
	// instantly terminal with the recorded structured failure — no queue
	// traffic, no fresh attempts.
	s2 := newServerOpts(serverOptions{
		Store: mustOpenStore(t, dir), Workers: 1, QueueCap: 16,
		Logf: t.Logf, Fault: plan,
	})
	c2, stop2 := testClient(t, s2)
	defer stop2()
	bs, err := c2.Submit(context.Background(), testManifest(t, "Stream"))
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Done {
		t.Fatalf("poisoned resubmit not instantly done: %+v", bs)
	}
	js := bs.Jobs[0]
	if js.State != client.StateFailed || !js.Poisoned || js.Attempts != 1 || js.Error == "" {
		t.Fatalf("poisoned resubmit: %+v, want instant structured failure", js)
	}
}
