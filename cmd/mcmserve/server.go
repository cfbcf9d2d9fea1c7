package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/faultinject"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore"
	"mcmgpu/internal/runstore/client"
	"mcmgpu/internal/workload"
)

// maxManifestBytes bounds a submission body; a manifest is configuration,
// not data, so 16 MB is generous.
const maxManifestBytes = 16 << 20

// pendingFile is where a draining server persists its queued jobs, inside
// the store directory (queued work is durable exactly when results are).
const pendingFile = "pending.json"

// poisonedFile is where quarantined jobs persist, next to pending.json: a
// job that failed deterministically must stay quarantined across restarts,
// or every new server would simulate it again to rediscover the same
// poison.
const poisonedFile = "poisoned.json"

// watchKeepalive is how often a watch stream resends the latest snapshot
// even without a state change, so a client's idle watchdog can tell a
// quiet batch from a dead connection.
const watchKeepalive = 2 * time.Second

// poisonRecord is one quarantined job as persisted in poisoned.json.
type poisonRecord struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Error    string `json:"error"`
	Kind     string `json:"kind"`
	Attempts int    `json:"attempts"`
}

// pendingJob is one queued job persisted across a drain: the original wire
// request plus the manifest-level bounds that participate in its identity.
type pendingJob struct {
	Req       client.JobRequest `json:"req"`
	MaxEvents uint64            `json:"max_events,omitempty"`
	MaxCycles uint64            `json:"max_cycles,omitempty"`
	Audit     bool              `json:"audit,omitempty"`
}

// svcJob is the server's record of one deduplicated job. All fields after
// the immutable identity block are guarded by server.mu.
type svcJob struct {
	id     string
	key    string
	req    client.JobRequest
	job    runner.Job
	limits core.RunOptions

	state  string
	source string
	errMsg string
	// errKind classifies a failure (runner.ErrClass); attempts counts the
	// job's deterministic failures, and poisoned marks the job quarantined
	// by the first one.
	errKind  string
	attempts int
	poisoned bool
	res      *core.Result
	// refs counts live batches referencing the job; canceling a batch
	// decrements it and the job itself is canceled at zero, so one
	// client's cancel can never kill a cell another client still wants.
	refs   int
	ctx    context.Context
	cancel context.CancelFunc
}

func (j *svcJob) statusLocked() client.JobStatus {
	return client.JobStatus{
		ID:       j.id,
		State:    j.state,
		Source:   j.source,
		Error:    j.errMsg,
		Workload: j.job.Spec.Name,
		Config:   j.job.Config.Name,
		ErrKind:  j.errKind,
		Attempts: j.attempts,
		Poisoned: j.poisoned,
	}
}

type svcBatch struct {
	id       string
	jobIDs   []string
	canceled bool
}

type server struct {
	store    *runstore.Store // nil = degraded, memory-only service
	queueCap int
	workers  int
	// fault is the server's armed fault plan (engine or store family). It
	// participates in store-key derivation AND in every worker's runner,
	// so job identity always reflects the faults the job actually runs
	// under.
	fault faultinject.Plan
	logf  func(format string, args ...interface{})

	mu       sync.Mutex
	cond     *sync.Cond // signals queue activity and stopping
	queue    []*svcJob  // FIFO of jobs waiting for a worker
	jobs     map[string]*svcJob
	batches  map[string]*svcBatch
	poisoned map[string]poisonRecord // quarantined job IDs, loaded from disk
	inflight int                     // jobs a worker is currently running
	batchSeq int
	draining bool
	stopping bool

	wg  sync.WaitGroup
	mux *http.ServeMux
}

// serverOptions configures newServerOpts; the zero value of every
// optional field means its default.
type serverOptions struct {
	Store    *runstore.Store
	Workers  int
	QueueCap int
	Logf     func(string, ...interface{})
	// Fault is the fault plan armed into every worker's runner and into
	// store-key derivation (engine faults shape job identity).
	Fault faultinject.Plan
}

func newServerOpts(o serverOptions) *server {
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	s := &server{
		store:    o.Store,
		queueCap: o.QueueCap,
		workers:  o.Workers,
		fault:    o.Fault,
		logf:     o.Logf,
		jobs:     map[string]*svcJob{},
		batches:  map[string]*svcBatch{},
		poisoned: map[string]poisonRecord{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleBatch)
	s.mux.HandleFunc("GET /v1/batches/{id}/watch", s.handleWatch)
	s.mux.HandleFunc("POST /v1/batches/{id}/cancel", s.handleCancelBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancelJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /statsz", s.handleStats)
	s.loadPoisoned()
	if o.Workers > 0 {
		s.startWorkers(o.Workers)
	}
	s.recoverPending()
	return s
}

func (s *server) startWorkers(n int) {
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// storeKey derives the durable identity of a parsed job under its limits —
// the same key the local CLIs' runners use, so a cell simulated by sweep on
// a laptop is a store hit here and vice versa. The server's fault plan is
// part of the key exactly as it is part of the worker runner, so faulted
// and unfaulted runs of one cell can never collide.
func (s *server) storeKey(j runner.Job, limits core.RunOptions) string {
	return (&runner.Runner{Limits: limits, Fault: s.fault}).StoreKey(j)
}

// parseJob validates one wire request into a runnable job.
func parseJob(req client.JobRequest) (runner.Job, error) {
	if len(req.System) == 0 {
		return runner.Job{}, errors.New("missing system configuration")
	}
	cfg, err := config.ReadJSON(bytes.NewReader(req.System))
	if err != nil {
		return runner.Job{}, fmt.Errorf("bad system configuration: %w", err)
	}
	spec, err := workload.ByName(req.Workload)
	if err != nil {
		return runner.Job{}, err
	}
	return runner.Job{Config: cfg, Spec: spec, Scale: req.Scale}, nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(client.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// submit is the transport-independent submission path, shared by the HTTP
// handler and pending-queue recovery. It deduplicates jobs against live
// records and the store, enqueues the rest atomically (all or nothing
// against the queue bound), and returns the new batch's status.
func (s *server) submit(m client.Manifest) (*client.BatchStatus, int, error) {
	if len(m.Jobs) == 0 {
		return nil, http.StatusBadRequest, errors.New("manifest has no jobs")
	}
	limits := core.RunOptions{MaxEvents: m.MaxEvents, MaxCycles: m.MaxCycles, Audit: m.Audit}

	type parsed struct {
		req      client.JobRequest
		job      runner.Job
		key, id  string
		held     bool // a live record or the quarantine answers it
		storeHit bool
		res      *core.Result
	}
	items := make([]parsed, len(m.Jobs))
	for i, req := range m.Jobs {
		job, err := parseJob(req)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err)
		}
		key := s.storeKey(job, limits)
		items[i] = parsed{req: req, job: job, key: key, id: runstore.KeyID(key)}
	}
	// Probe the store outside the lock for the cells no live record and no
	// quarantine entry already answers: warm cells become instantly-done
	// jobs with no queue traffic, and a cell the server holds costs no
	// blob read, checksum or decode. A record created between the two
	// locked passes is still deduplicated below. A store error here
	// degrades to a queue slot (the worker recomputes), never to a failed
	// submission.
	if s.store != nil {
		s.mu.Lock()
		for i := range items {
			j, live := s.jobs[items[i].id]
			items[i].held = live && j.state != client.StateCanceled || s.poisonedLocked(items[i].id) != nil
		}
		s.mu.Unlock()
		for i := range items {
			if items[i].held {
				continue
			}
			if res, _, ok, err := s.store.Get(items[i].key); err == nil && ok {
				items[i].storeHit = true
				items[i].res = res
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable, errors.New("server is draining")
	}
	need := 0
	counted := map[string]bool{}
	for _, it := range items {
		if it.storeHit || counted[it.id] || s.poisonedLocked(it.id) != nil {
			continue
		}
		if j, ok := s.jobs[it.id]; ok && j.state != client.StateCanceled {
			continue
		}
		counted[it.id] = true
		need++
	}
	if len(s.queue)+need > s.queueCap {
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d queued, %d new jobs, cap %d)", len(s.queue), need, s.queueCap)
	}

	s.batchSeq++
	b := &svcBatch{id: fmt.Sprintf("b%06d", s.batchSeq)}
	bs := &client.BatchStatus{ID: b.id, Done: true}
	seen := map[string]bool{}
	for _, it := range items {
		j, live := s.jobs[it.id]
		switch {
		case live && j.state != client.StateCanceled:
			// Deduplicated onto an existing record (possibly from another
			// client's batch).
		case s.poisonedLocked(it.id) != nil:
			// Quarantined: resubmission returns the recorded structured
			// failure instantly instead of simulating the cell again.
			rec := s.poisonedLocked(it.id)
			j = &svcJob{
				id: it.id, key: it.key, req: it.req, job: it.job, limits: limits,
				state: client.StateFailed, errMsg: rec.Error, errKind: rec.Kind,
				attempts: rec.Attempts, poisoned: true,
			}
			s.jobs[it.id] = j
		case it.storeHit:
			j = &svcJob{
				id: it.id, key: it.key, req: it.req, job: it.job, limits: limits,
				state: client.StateDone, source: client.SourceStore, res: it.res,
			}
			s.jobs[it.id] = j
		default:
			ctx, cancel := context.WithCancel(context.Background())
			j = &svcJob{
				id: it.id, key: it.key, req: it.req, job: it.job, limits: limits,
				state: client.StateQueued, ctx: ctx, cancel: cancel,
			}
			s.jobs[it.id] = j
			s.queue = append(s.queue, j)
			s.cond.Signal()
		}
		if !seen[it.id] {
			seen[it.id] = true
			if !client.Terminal(j.state) {
				j.refs++
			}
		}
		b.jobIDs = append(b.jobIDs, it.id)
		bs.Jobs = append(bs.Jobs, j.statusLocked())
		if !client.Terminal(j.state) {
			bs.Done = false
		}
	}
	s.batches[b.id] = b
	return bs, http.StatusOK, nil
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var m client.Manifest
	body := http.MaxBytesReader(w, r.Body, maxManifestBytes)
	if err := json.NewDecoder(body).Decode(&m); err != nil {
		httpError(w, http.StatusBadRequest, "bad manifest: %v", err)
		return
	}
	bs, code, err := s.submit(m)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfter()))
		}
		httpError(w, code, "%v", err)
		return
	}
	writeJSON(w, bs)
}

// retryAfter estimates seconds until queue pressure clears: the backlog
// (queued + in-flight jobs) over the worker count, assuming roughly a
// job per worker-second, floored at 1 and capped at 30. A hard-coded
// constant here made every rejected client retry in lockstep regardless
// of how deep the backlog actually was.
func (s *server) retryAfter() int {
	s.mu.Lock()
	backlog := len(s.queue) + s.inflight
	s.mu.Unlock()
	w := s.workers
	if w <= 0 {
		w = 1
	}
	ra := 1 + backlog/w
	if ra > 30 {
		ra = 30
	}
	return ra
}

// worker pulls jobs off the queue until the server stops. In-flight jobs
// always finish: stopping only prevents taking new work.
func (s *server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopping {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		if j.state != client.StateQueued {
			s.mu.Unlock() // canceled while queued
			continue
		}
		j.state = client.StateRunning
		s.inflight++
		s.mu.Unlock()
		s.runOne(j)
	}
}

// runOne executes one job: a cell another client (or a past process)
// computed since the submit probe is a store hit, and a fresh cell is
// simulated through the runner and persisted. The runner gets no store, so
// the worker reads the store once per attempt, and no memo cache: s.jobs
// already holds one record per job ID, so no two workers ever run the same
// cell. Store failures degrade to compute, and a failed Put is counted and
// logged by the store but never fails the job: a job never fails because
// the disk did.
func (s *server) runOne(j *svcJob) {
	if s.store != nil {
		if res, _, ok, err := s.store.Get(j.key); err == nil && ok {
			s.finish(j, res, nil, client.SourceStore)
			return
		}
	}
	limits := j.limits
	limits.Ctx = j.ctx
	rr := &runner.Runner{
		Workers: 1,
		Limits:  limits,
		Fault:   s.fault,
	}
	results, err := rr.Run([]runner.Job{j.job})
	if err != nil {
		s.finish(j, nil, err, "")
		return
	}
	if s.store != nil {
		_ = s.store.Put(j.key, results[0], nil)
	}
	s.finish(j, results[0], nil, client.SourceCompute)
}

// finish records a job's outcome. Failures are partitioned by error
// class: cancellation and wall-time failures are environmental and
// terminal as-is; a deterministic failure (panic, budget, invariant)
// would recur on every retry, so it poisons the job on its first attempt —
// quarantined in memory and on disk so no server ever runs it again.
func (s *server) finish(j *svcJob, res *core.Result, err error, source string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight > 0 {
		s.inflight--
	}
	switch {
	case err == nil:
		j.state = client.StateDone
		j.source = source
		j.res = res
	case j.ctx != nil && j.ctx.Err() != nil:
		j.state = client.StateCanceled
		j.errKind = string(runner.ClassCanceled)
	default:
		class := runner.Classify(err)
		j.state = client.StateFailed
		j.errKind = string(class)
		j.errMsg = err.Error()
		// Only a deterministic failure poisons: a transient one could
		// succeed under different wall-time conditions, but the job's
		// budget was the client's choice, so it just fails.
		if class.Deterministic() {
			j.attempts++
			j.poisoned = true
			s.quarantineLocked(j)
		}
	}
	s.logf("mcmserve: job %s (%s on %s) %s", j.id, j.job.Spec.Name, j.job.Config.Name, j.state)
}

// poisonedLocked returns the quarantine record for a job ID, nil if none.
func (s *server) poisonedLocked(id string) *poisonRecord {
	if rec, ok := s.poisoned[id]; ok {
		return &rec
	}
	return nil
}

// quarantineLocked records a poisoned job in memory and persists the
// quarantine set next to pending.json, so the poison survives restarts.
func (s *server) quarantineLocked(j *svcJob) {
	rec := poisonRecord{
		ID:       j.id,
		Workload: j.job.Spec.Name,
		Config:   j.job.Config.Name,
		Error:    j.errMsg,
		Kind:     j.errKind,
		Attempts: j.attempts,
	}
	s.poisoned[j.id] = rec
	s.logf("mcmserve: job %s (%s on %s) poisoned after %d attempt: %s",
		j.id, rec.Workload, rec.Config, rec.Attempts, rec.Error)
	if s.store == nil {
		return
	}
	recs := make([]poisonRecord, 0, len(s.poisoned))
	for _, r := range s.poisoned {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
	if err := writeFileAtomic(filepath.Join(s.store.Dir(), poisonedFile), recs); err != nil {
		s.logf("mcmserve: persisting quarantine failed: %v", err)
	}
}

// loadPoisoned restores the quarantine set a predecessor persisted. The
// file is kept (not consumed): quarantine is state, not a work queue.
func (s *server) loadPoisoned() {
	if s.store == nil {
		return
	}
	data, err := os.ReadFile(filepath.Join(s.store.Dir(), poisonedFile))
	if err != nil {
		return
	}
	var recs []poisonRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		s.logf("mcmserve: unreadable %s (ignored): %v", poisonedFile, err)
		return
	}
	for _, r := range recs {
		s.poisoned[r.ID] = r
	}
	if len(recs) > 0 {
		s.logf("mcmserve: %d quarantined job(s) loaded from %s", len(recs), poisonedFile)
	}
}

func (s *server) batchStatusLocked(b *svcBatch) *client.BatchStatus {
	bs := &client.BatchStatus{ID: b.id, Done: true}
	for _, id := range b.jobIDs {
		j := s.jobs[id]
		bs.Jobs = append(bs.Jobs, j.statusLocked())
		if !client.Terminal(j.state) {
			bs.Done = false
		}
	}
	return bs
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	b, ok := s.batches[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such batch")
		return
	}
	bs := s.batchStatusLocked(b)
	s.mu.Unlock()
	writeJSON(w, bs)
}

// handleWatch streams batch status as NDJSON: one snapshot per state
// change, a keepalive resend of the latest snapshot every couple of
// seconds while nothing changes, and a final snapshot when the batch is
// done. The keepalive is what lets a client-side idle watchdog tell a
// quiet batch from a dead connection. curl .../watch renders a live view.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	var last []byte
	var lastSent time.Time
	for {
		s.mu.Lock()
		b, ok := s.batches[id]
		if !ok {
			s.mu.Unlock()
			httpError(w, http.StatusNotFound, "no such batch")
			return
		}
		bs := s.batchStatusLocked(b)
		s.mu.Unlock()
		cur, _ := json.Marshal(bs)
		if !bytes.Equal(cur, last) || time.Since(lastSent) >= watchKeepalive {
			last = cur
			lastSent = time.Now()
			if err := enc.Encode(bs); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if bs.Done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	js := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, js)
}

// handleResult serves a done job's result — from memory when this process
// ran it, from the store otherwise (which is how a restarted server serves
// results for jobs submitted to its predecessor).
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var (
		res   *core.Result
		state string
	)
	if ok {
		state = j.state
		res = j.res
	}
	s.mu.Unlock()
	if ok && state != client.StateDone {
		httpError(w, http.StatusConflict, "job is %s", state)
		return
	}
	if res == nil && s.store != nil {
		var err error
		res, _, ok, err = s.store.GetByID(id)
		if err != nil {
			// Environmental store failure: the result may exist but is
			// unreadable right now. 503 so the client's retry loop gets
			// another chance instead of treating it as gone.
			httpError(w, http.StatusServiceUnavailable, "store unavailable: %v", err)
			return
		}
		if !ok {
			res = nil
		}
	}
	if res == nil {
		httpError(w, http.StatusNotFound, "no result for job")
		return
	}
	writeJSON(w, res)
}

func (s *server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.cancelJobLocked(j)
	js := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, js)
}

// cancelJobLocked cancels a non-terminal job: queued jobs flip to canceled
// (workers skip them), running jobs get their context canceled and the
// worker records the terminal state.
func (s *server) cancelJobLocked(j *svcJob) {
	switch j.state {
	case client.StateQueued:
		j.state = client.StateCanceled
		if j.cancel != nil {
			j.cancel()
		}
	case client.StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}

func (s *server) handleCancelBatch(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	b, ok := s.batches[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such batch")
		return
	}
	if !b.canceled {
		b.canceled = true
		seen := map[string]bool{}
		for _, id := range b.jobIDs {
			if seen[id] {
				continue
			}
			seen[id] = true
			j := s.jobs[id]
			if client.Terminal(j.state) {
				continue
			}
			if j.refs > 0 {
				j.refs--
			}
			if j.refs == 0 {
				s.cancelJobLocked(j)
			}
		}
	}
	bs := s.batchStatusLocked(b)
	s.mu.Unlock()
	writeJSON(w, bs)
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, map[string]interface{}{"status": "ok", "draining": draining})
}

// handleReady is the load-balancer signal, distinct from liveness: a
// draining or queue-saturated server answers 503 (with a Retry-After
// matched to its backlog) while still passing /healthz, so a pool routes
// new work elsewhere without declaring the process dead. SIGTERM flips
// this before the drain starts, giving clients the whole drain window to
// move.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	saturated := len(s.queue) >= s.queueCap
	s.mu.Unlock()
	switch {
	case draining:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfter()))
		httpError(w, http.StatusServiceUnavailable, "draining")
	case saturated:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfter()))
		httpError(w, http.StatusServiceUnavailable, "queue saturated")
	default:
		writeJSON(w, map[string]interface{}{"status": "ready"})
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := len(s.queue)
	jobs := len(s.jobs)
	batches := len(s.batches)
	s.mu.Unlock()
	out := map[string]interface{}{
		"queue_depth": depth,
		"jobs":        jobs,
		"batches":     batches,
	}
	if s.store != nil {
		out["store"] = s.store.Stats()
	} else {
		out["store"] = nil
	}
	writeJSON(w, out)
}

// drain is the graceful-shutdown path: refuse new submissions, let
// in-flight jobs finish, and persist still-queued jobs next to the store
// so a restarted server resumes them. Returns the number of jobs
// persisted.
func (s *server) drain() int {
	s.mu.Lock()
	s.draining = true
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait() // in-flight jobs finish

	s.mu.Lock()
	var pending []pendingJob
	for _, j := range s.queue {
		if j.state != client.StateQueued {
			continue
		}
		pending = append(pending, pendingJob{
			Req:       j.req,
			MaxEvents: j.limits.MaxEvents,
			MaxCycles: j.limits.MaxCycles,
			Audit:     j.limits.Audit,
		})
	}
	s.queue = nil
	s.mu.Unlock()

	if len(pending) == 0 {
		return 0
	}
	if s.store == nil {
		s.logf("mcmserve: no store directory; dropping %d queued job(s) on drain", len(pending))
		return 0
	}
	if err := writeFileAtomic(filepath.Join(s.store.Dir(), pendingFile), pending); err != nil {
		s.logf("mcmserve: persisting queued jobs failed: %v", err)
		return 0
	}
	s.logf("mcmserve: persisted %d queued job(s) for the next server", len(pending))
	return len(pending)
}

func writeFileAtomic(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// recoverPending resumes jobs a predecessor persisted on drain. Grouped by
// identical bounds into recovery batches so budgets survive the restart.
func (s *server) recoverPending() {
	if s.store == nil {
		return
	}
	path := filepath.Join(s.store.Dir(), pendingFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	os.Remove(path) // consumed; a later drain rewrites it
	var pending []pendingJob
	if err := json.Unmarshal(data, &pending); err != nil {
		s.logf("mcmserve: unreadable %s (ignored): %v", pendingFile, err)
		return
	}
	groups := map[string]*client.Manifest{}
	for _, p := range pending {
		gk := fmt.Sprintf("%d|%d|%v", p.MaxEvents, p.MaxCycles, p.Audit)
		m, ok := groups[gk]
		if !ok {
			m = &client.Manifest{MaxEvents: p.MaxEvents, MaxCycles: p.MaxCycles, Audit: p.Audit}
			groups[gk] = m
		}
		m.Jobs = append(m.Jobs, p.Req)
	}
	n := 0
	for _, m := range groups {
		if _, _, err := s.submit(*m); err != nil {
			s.logf("mcmserve: recovering queued jobs failed: %v", err)
			continue
		}
		n += len(m.Jobs)
	}
	if n > 0 {
		s.logf("mcmserve: recovered %d queued job(s) from the previous server", n)
	}
}
