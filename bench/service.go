package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mcmgpu/internal/config"
	"mcmgpu/internal/core"
	"mcmgpu/internal/runner"
	"mcmgpu/internal/runstore"
	"mcmgpu/internal/runstore/client"
	"mcmgpu/internal/workload"
)

const (
	// serviceScale sizes the pre-warmed cells warm requests read;
	// coldScale the cells cold requests simulate, half as long, so that two
	// rounds fit a 10 s window at the same server load as one round of
	// serviceScale cells.
	serviceScale = 0.1
	coldScale    = 0.05
	// Open-loop arrival rates. Cold requests cycle through whole rounds of
	// all 48 apps, so every seed sends the same mix and their latencies
	// spread evenly instead of bunching around a few apps' run times; the
	// window holds the whole number of rounds nearest coldRate, at least
	// one. The p90 request is a cold one, and a single round puts it on
	// whichever app's run time lands there, so it jumps between runs; two
	// rounds smooth that. They keep the single server worker about a
	// quarter busy, which leaves room for the host to slow down severalfold
	// before the queue grows without bound.
	warmRate = 16.0 // requests/s
	coldRate = 9.6  // requests/s, rounded to whole rounds: two per 10 s
	// Latency limits for goodput, each at least 3x its class's median on a
	// 2-core host.
	warmLimit = 25 * time.Millisecond
	coldLimit = time.Second
	// coldChecked is how many cold results are re-simulated in process.
	coldChecked = 10
	pollEvery   = 10 * time.Millisecond
	maxInFlight = 64
)

// request is one scheduled service request: a one-job batch.
type request struct {
	due   time.Duration // from the start of the window
	cold  bool
	cell  cell // the cell as the library runs it, for checking
	sys   json.RawMessage
	scale float64
	ref   *core.Result // warm: the pre-warm result
	// phase delays a cold request's first poll. Without it every cold
	// latency is a whole number of poll intervals after the submit returns,
	// and the p90 request jumps a full interval between runs.
	phase time.Duration
}

// outcome is what one request saw.
type outcome struct {
	lat, lag time.Duration
	res      *core.Result
	source   string
	err      error
}

// runService is the service workload: mcmserve over a pre-warmed store,
// driven by an open loop of warm reads and cold simulate-and-write
// requests.
func runService(e *env) (*report, error) {
	r := newReport()
	apps, scale, cold := workload.Suite(), serviceScale, coldScale
	if e.quick {
		apps, scale, cold = apps[:6], 0.02, 0.02
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))

	// Pre-warm the store in process, through the runner's store tier.
	storeDir := filepath.Join(e.work, "store")
	st, err := runstore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	base := config.BaselineMCM()
	jobs := make([]runner.Job, len(apps))
	for i, a := range apps {
		jobs[i] = runner.Job{Config: base, Spec: a, Scale: scale}
	}
	warmRes, err := (&runner.Runner{Workers: e.workers, Store: st}).Run(jobs)
	if err != nil {
		return nil, fmt.Errorf("pre-warm: %w", err)
	}
	sched, err := schedule(e, rng, apps, warmRes, scale, cold)
	if err != nil {
		return nil, err
	}

	// Set-up: mcmserve exec to the first ready answer, setupReps times; the
	// last server serves the window.
	var srv *server
	defer func() { srv.stop() }()
	setup, err := medianOf(setupReps, func() (time.Duration, error) {
		srv.stop()
		var err error
		srv, err = startServer(e, storeDir)
		if err != nil {
			return 0, err
		}
		return srv.ready, nil
	})
	if err != nil {
		return nil, err
	}

	var retries atomic.Int64
	cl := &client.Client{
		BaseURL: srv.url,
		HTTP: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}},
		Logf: func(string, ...interface{}) { retries.Add(1) },
	}
	prof, err := e.startProfile()
	if err != nil {
		return nil, err
	}
	var poll *statPoller
	if e.tr != nil {
		poll = startStatPoller(srv.url)
	}
	srvCPU0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	dues := make([]time.Duration, len(sched))
	for i, rq := range sched {
		dues[i] = rq.due
	}
	outs, wall := openLoop(dues, maxInFlight, func(i int, due, sent time.Time) outcome {
		return send(e, cl, i+1, &sched[i], due, sent)
	})
	cpu1 := selfCPU()
	srvCPU1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	peak, err := procPeakRSS(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var final statz
	if poll != nil {
		final = poll.stop()
	}
	if prof != nil {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	if err := srv.stop(); err != nil {
		r.fail("mcmserve did not drain cleanly: %v", err)
	}

	// Metrics.
	var lat, warmLat, coldLat []float64
	good := 0
	var maxLag time.Duration
	for i, o := range outs {
		if o.err != nil {
			continue
		}
		lat = append(lat, ms(o.lat))
		limit := warmLimit
		if sched[i].cold {
			limit = coldLimit
			coldLat = append(coldLat, ms(o.lat))
		} else {
			warmLat = append(warmLat, ms(o.lat))
		}
		if o.lat <= limit {
			good++
		}
		maxLag = max(maxLag, o.lag)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", outs[0].err)
	}
	r.set("setup_s", setup.Seconds())
	r.set("op_ms_p50", quantile(lat, 0.5))
	r.set("op_ms_tail", quantile(lat, tailQuantile(len(lat))))
	r.set("ops_per_s", float64(good)/wall.Seconds())
	r.set("cpu_ms_per_op", ms(srvCPU1-srvCPU0+cpu1-cpu0)/float64(len(outs)))
	r.set("peak_rss_mb", peak)
	fmt.Printf("requests: %d warm (p50 %.2f ms, p90 %.2f ms), %d cold (p50 %.2f ms, p90 %.2f ms), %d within limits, generator late by up to %.2f ms\n",
		len(warmLat), quantile(warmLat, 0.5), quantile(warmLat, 0.9),
		len(coldLat), quantile(coldLat, 0.5), quantile(coldLat, 0.9), good, ms(maxLag))

	// Correctness: warm results equal the pre-warm, sampled cold results
	// equal an in-process simulation, and each came from the right place.
	var coldIdx []int
	var fetched []*core.Result
	for i, o := range outs {
		req := sched[i]
		r.attempted++
		wantSrc := client.SourceStore
		if req.cold {
			wantSrc = client.SourceCompute
		}
		switch {
		case o.err != nil:
			r.opFailed("%v: %v", req.cell, o.err)
		case o.source != wantSrc:
			r.opFailed("%v: source %q, want %q", req.cell, o.source, wantSrc)
		case !req.cold && !sameResult(o.res, req.ref):
			r.opFailed("%v: served result differs from the pre-warm result", req.cell)
		case req.cold:
			coldIdx = append(coldIdx, i)
			fetched = append(fetched, o.res)
		}
	}
	rng.Shuffle(len(coldIdx), func(a, b int) { coldIdx[a], coldIdx[b] = coldIdx[b], coldIdx[a] })
	coldIdx = coldIdx[:min(coldChecked, len(coldIdx))]
	resim := make([]*core.Result, len(coldIdx))
	errs := make([]error, len(coldIdx))
	parallel(e.workers, len(coldIdx), func(k int) {
		resim[k], errs[k] = e.simulate(0, sched[coldIdx[k]].cell, core.RunOptions{})
	})
	for k, i := range coldIdx {
		switch {
		case errs[k] != nil:
			r.fail("re-simulating %v: %v", sched[i].cell, errs[k])
		case !sameResult(resim[k], outs[i].res):
			r.opFailed("%v: served result differs from an in-process simulation", sched[i].cell)
		}
	}

	if e.tr == nil {
		return r, nil
	}
	spans := e.tr.snapshot()
	var total float64
	for _, l := range lat {
		total += l
	}
	share := func(name string) float64 {
		var s float64
		for _, d := range durationsMs(spans, name) {
			s += d
		}
		return 100 * s / total
	}
	r.set("client.submit_pct", share("client.Submit"))
	r.set("client.poll_pct", share("client.poll"))
	r.set("client.result_pct", share("client.Result"))
	r.set("service.gen_wait_pct", share("gen.wait"))
	r.set("mcmserve.queue_depth_max", float64(poll.maxDepth))
	r.set("mcmserve.refused", float64(retries.Load()))
	if h, m := final.Store.Hits, final.Store.Misses; h+m > 0 {
		r.set("mcmserve.store_hit_pct", 100*float64(h)/float64(h+m))
	}
	r.set("mcmserve.cpu_util_pct", 100*(srvCPU1-srvCPU0).Seconds()/wall.Seconds())
	distinct := append(append(nonNil(warmRes), fetched...), nonNil(resim)...)
	return r, finishTrace(e, r, prof, wall, distinct)
}

// schedule builds the window's requests: warm requests for seed-shuffled
// pre-warmed cells, cold requests for never-seen cells (a distinct link
// bandwidth each, simulated at coldScale), both evenly spaced with seeded
// jitter.
func schedule(e *env, rng *rand.Rand, apps []*workload.Spec, warmRes []*core.Result, scale, coldScale float64) ([]request, error) {
	coldApps := append([]*workload.Spec(nil), apps...)
	secs := e.seconds.Seconds()
	nWarm := max(1, int(warmRate*secs+0.5))
	rounds := max(1, int(coldRate*secs/float64(len(coldApps))+0.5))
	nCold := rounds * len(coldApps)

	var baseSys bytes.Buffer
	if err := config.BaselineMCM().WriteJSON(&baseSys); err != nil {
		return nil, err
	}
	at := func(i, n int) time.Duration {
		gap := e.seconds / time.Duration(n)
		jitter := time.Duration((rng.Float64() - 0.5) * 0.5 * float64(gap))
		return time.Duration(i)*gap + gap/2 + jitter
	}
	var sched []request
	warmOrder := rng.Perm(len(apps))
	for i := 0; i < nWarm; i++ {
		a := warmOrder[i%len(apps)]
		spec := apps[a]
		if scale != 1 {
			spec = spec.Scaled(scale)
		}
		sched = append(sched, request{due: at(i, nWarm), cell: cell{cfg: config.BaselineMCM(), spec: spec},
			sys: json.RawMessage(baseSys.Bytes()), scale: scale, ref: warmRes[a]})
	}
	linkBase := 1000 + float64(e.seed%997)
	for k := 0; k < nCold; k++ {
		if k%len(coldApps) == 0 {
			rng.Shuffle(len(coldApps), func(a, b int) { coldApps[a], coldApps[b] = coldApps[b], coldApps[a] })
		}
		sys := config.MCMWithLink(linkBase + float64(k))
		var buf bytes.Buffer
		if err := sys.WriteJSON(&buf); err != nil {
			return nil, err
		}
		spec := coldApps[k%len(coldApps)].Scaled(coldScale)
		sched = append(sched, request{due: at(k, nCold), cold: true, cell: cell{cfg: sys, spec: spec},
			sys: json.RawMessage(buf.Bytes()), scale: coldScale, phase: time.Duration(rng.Int63n(int64(pollEvery)))})
	}
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].due < sched[b].due })
	return sched, nil
}

// openLoop starts call(i, due, sent) for every due time, measured from the
// window's start, whatever earlier calls are doing; at most inFlight run at
// once, and a call that has to wait for a slot starts late. Each outcome's
// latency runs from its due time, so a stall also counts against the
// requests it delays, and its lag is how late the generator started it.
// It returns the outcomes in schedule order and the wall time from the
// window's start to the last completion.
func openLoop(dues []time.Duration, inFlight int, call func(i int, due, sent time.Time) outcome) ([]outcome, time.Duration) {
	outs := make([]outcome, len(dues))
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range dues {
		due := start.Add(d)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			sent := time.Now()
			o := call(i, due, sent)
			o.lat, o.lag = time.Since(due), sent.Sub(due)
			outs[i] = o
		}(i)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// send performs one request: submit a one-job batch, poll until a cold job
// is done, fetch the result.
func send(e *env, cl *client.Client, req int, rq *request, due, sent time.Time) (o outcome) {
	ctx := context.Background()
	tr := e.tr
	id := tr.id()
	tr.add(tr.id(), id, req, "gen.wait", due, sent)
	defer func() { tr.add(id, 0, req, "request", due, time.Now()) }()

	m := client.Manifest{Jobs: []client.JobRequest{{System: rq.sys, Workload: rq.cell.spec.Name, Scale: rq.scale}}}
	t0 := time.Now()
	bs, err := cl.Submit(ctx, m)
	tr.add(tr.id(), id, req, "client.Submit", t0, time.Now())
	if err != nil {
		o.err = err
		return o
	}
	if len(bs.Jobs) != 1 {
		o.err = fmt.Errorf("batch %s has %d jobs", bs.ID, len(bs.Jobs))
		return o
	}
	js := bs.Jobs[0]
	if !js.Done() {
		pollID := tr.id()
		t0 := time.Now()
		for wait := rq.phase; !js.Done(); wait = pollEvery {
			time.Sleep(wait)
			t1 := time.Now()
			b, err := cl.Batch(ctx, bs.ID)
			tr.add(tr.id(), pollID, req, "client.Batch", t1, time.Now())
			if err != nil {
				o.err = err
				return o
			}
			js = b.Jobs[0]
		}
		tr.add(pollID, id, req, "client.poll", t0, time.Now())
	}
	if js.State != client.StateDone {
		o.err = fmt.Errorf("job %s %s: %s", js.ID, js.State, js.Error)
		return o
	}
	o.source = js.Source
	t0 = time.Now()
	o.res, o.err = cl.Result(ctx, js.ID)
	tr.add(tr.id(), id, req, "client.Result", t0, time.Now())
	return o
}

// server is one mcmserve child process.
type server struct {
	cmd   *exec.Cmd
	url   string
	ready time.Duration // exec to the first /readyz 200
	done  chan error
}

// startServer starts mcmserve with one worker on a free local port and
// waits until /readyz answers 200.
func startServer(e *env, storeDir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(filepath.Join(e.work, "mcmserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(e.bin, "mcmserve"), "-store", storeDir, "-addr", addr, "-j", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, url: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := t0.Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("mcmserve exited before ready: %v", err)
		default:
		}
		resp, err := hc.Get(s.url + "/readyz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			s.ready = time.Since(t0)
			return s, nil
		}
	}
	s.kill()
	return nil, errors.New("mcmserve not ready after 30s")
}

// stop drains the server with SIGTERM, as an operator would, and waits for
// it to exit; a server that does not exit in time is killed. nil-safe.
func (s *server) stop() error {
	if s == nil || s.cmd == nil {
		return nil
	}
	defer func() { s.cmd = nil }()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("mcmserve did not exit within 20s of SIGTERM")
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// statz is the part of mcmserve's /statsz the benchmark reads.
type statz struct {
	QueueDepth int            `json:"queue_depth"`
	Store      runstore.Stats `json:"store"`
}

// statPoller samples /statsz every 50 ms during a traced window.
type statPoller struct {
	maxDepth int
	last     statz
	quit     chan struct{}
	done     chan struct{}
}

func startStatPoller(url string) *statPoller {
	p := &statPoller{quit: make(chan struct{}), done: make(chan struct{})}
	hc := &http.Client{Timeout: time.Second}
	go func() {
		defer close(p.done)
		for {
			if resp, err := hc.Get(url + "/statsz"); err == nil {
				var s statz
				if json.NewDecoder(resp.Body).Decode(&s) == nil {
					p.last = s
					p.maxDepth = max(p.maxDepth, s.QueueDepth)
				}
				resp.Body.Close()
			}
			select {
			case <-p.quit:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()
	return p
}

// stop ends polling and returns the last sample.
func (p *statPoller) stop() statz {
	close(p.quit)
	<-p.done
	return p.last
}
