// Package chaosproxy is an in-process fault-injecting HTTP proxy for
// testing the client/service execution plane under network damage. It sits
// in front of one backend (an mcmserve instance, usually) and injects the
// net-* fault family from internal/faultinject into matching requests:
// dropped connections, responses truncated mid-body, synthetic 5xx/429
// bursts, latency spikes, and fully black-holed requests.
//
// Faults are deterministic, not probabilistic: each plan keeps its own
// counter of matching requests and fires on a contiguous window of them
// (kind@N#M — requests N through N+M-1), so a test that arms
// "net-drop@1#2" knows exactly which requests die and can assert both that
// the damage happened (Stats) and that the client recovered. That
// determinism is what makes the anti-vacuity contract provable: every
// injected fault is counted, and a test requiring Injected["net-drop"] > 0
// cannot pass if the fault never fired.
//
// The proxy injects damage; it never invents data. Truncation forwards the
// backend's real response and cuts it short while preserving the original
// framing (Content-Length or chunked), so clients observe exactly what a
// mid-transfer connection loss produces: an unexpected EOF, never a
// plausible-but-wrong body.
package chaosproxy

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mcmgpu/internal/faultinject"
)

// Proxy is the fault-injecting reverse proxy. Configure the public fields
// before serving; they must not change once requests are flowing.
type Proxy struct {
	// Backend is the base URL requests are forwarded to, e.g.
	// "http://127.0.0.1:8037".
	Backend string
	// Plans are the armed net-* fault plans, consulted in order: the first
	// plan that matches and fires on a request decides its fate, but every
	// matching plan's request counter advances, so plan windows are
	// positions in the same request sequence.
	Plans []faultinject.Plan
	// TruncateBytes is how many body bytes a net-truncate response forwards
	// before cutting the connection (default 120 — enough to land mid-way
	// through any status object).
	TruncateBytes int
	// Latency is the delay a net-latency fault injects (default 250ms).
	Latency time.Duration
	// Logf, when non-nil, receives one line per injected fault.
	Logf func(format string, args ...interface{})

	// Transport performs the forwarding; nil means http.DefaultTransport.
	Transport http.RoundTripper

	mu       sync.Mutex
	seq      []uint64 // per-plan matching-request counters
	injected map[string]uint64
	forward  uint64

	closeOnce sync.Once
	done      chan struct{}
}

// New returns a proxy for the backend with the given plans armed. Plans
// that are not net kinds are rejected — arming a store or engine fault on
// the wire would silently do nothing.
func New(backend string, plans []faultinject.Plan) (*Proxy, error) {
	for _, p := range plans {
		if !p.IsNet() {
			return nil, fmt.Errorf("chaosproxy: plan %q is not a net fault", p)
		}
	}
	return &Proxy{
		Backend:  strings.TrimSuffix(backend, "/"),
		Plans:    plans,
		seq:      make([]uint64, len(plans)),
		injected: map[string]uint64{},
		done:     make(chan struct{}),
	}, nil
}

// Stats is a snapshot of the proxy's behavior: how many requests were
// forwarded clean and how many had each fault kind injected. Tests use it
// to prove a fault actually fired (anti-vacuity).
type Stats struct {
	Forwarded uint64
	Injected  map[string]uint64
}

// Stats returns a snapshot of the counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := Stats{Forwarded: p.forward, Injected: make(map[string]uint64, len(p.injected))}
	for k, v := range p.injected {
		out.Injected[k] = v
	}
	return out
}

// Close releases black-holed requests and stops further injection sleeps.
// Safe to call more than once.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() { close(p.done) })
}

// decide advances every matching plan's counter and returns the first plan
// that fires for this request path, if any.
func (p *Proxy) decide(path string) (faultinject.Plan, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var (
		chosen faultinject.Plan
		fire   bool
	)
	for i, plan := range p.Plans {
		if !plan.MatchesNet(path) {
			continue
		}
		n := p.seq[i]
		p.seq[i]++
		if !fire && plan.FiresAt(n) {
			chosen, fire = plan, true
		}
	}
	if fire {
		p.injected[chosen.Kind.String()]++
	} else {
		p.forward++
	}
	return chosen, fire
}

func (p *Proxy) logf(format string, args ...interface{}) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

func (p *Proxy) transport() http.RoundTripper {
	if p.Transport != nil {
		return p.Transport
	}
	return http.DefaultTransport
}

func (p *Proxy) truncateBytes() int {
	if p.TruncateBytes > 0 {
		return p.TruncateBytes
	}
	return 120
}

func (p *Proxy) latency() time.Duration {
	if p.Latency > 0 {
		return p.Latency
	}
	return 250 * time.Millisecond
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	plan, fire := p.decide(r.URL.Path)
	if fire {
		p.logf("chaosproxy: injecting %s into %s %s", plan.Kind, r.Method, r.URL.Path)
	}
	if !fire {
		p.forwardReq(w, r, false)
		return
	}
	switch plan.Kind {
	case faultinject.NetDrop:
		p.drop(w)
	case faultinject.NetTruncate:
		p.forwardReq(w, r, true)
	case faultinject.Net5xx:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"chaosproxy: injected 503"}`+"\n")
	case faultinject.Net429:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"chaosproxy: injected 429"}`+"\n")
	case faultinject.NetLatency:
		select {
		case <-time.After(p.latency()):
		case <-r.Context().Done():
			p.drop(w)
			return
		case <-p.done:
		}
		p.forwardReq(w, r, false)
	case faultinject.NetBlackhole:
		// Hold the request open without a byte of response until the client
		// gives up or the proxy closes — then cut the connection so not even
		// an error status escapes.
		select {
		case <-r.Context().Done():
		case <-p.done:
		}
		p.drop(w)
	default:
		p.forwardReq(w, r, false)
	}
}

// drop severs the client connection without writing a response. On a
// non-hijackable connection it falls back to http.ErrAbortHandler, which
// aborts the stream just as abruptly.
func (p *Proxy) drop(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	conn.Close()
}

// forwardReq proxies the request to the backend. With truncate set, the
// response body is cut after TruncateBytes while keeping the original
// framing, so the client sees a genuine mid-transfer connection loss.
func (p *Proxy) forwardReq(w http.ResponseWriter, r *http.Request, truncate bool) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, p.Backend+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"chaosproxy: %v"}`, err), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := p.transport().RoundTrip(out)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, `{"error":"chaosproxy: backend: %v"}`+"\n", err)
		return
	}
	defer resp.Body.Close()
	if truncate {
		p.truncate(w, resp)
		return
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// truncate writes the backend response onto the hijacked connection with
// its real framing — the original Content-Length when the backend declared
// one, chunked encoding otherwise — then closes the connection after at
// most TruncateBytes body bytes. Either framing makes the cut detectable:
// the client reads fewer bytes than promised, or a chunked stream ends
// without its terminal chunk, and both surface as an unexpected EOF.
func (p *Proxy) truncate(w http.ResponseWriter, resp *http.Response) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, bw, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	defer conn.Close()

	fmt.Fprintf(bw, "HTTP/1.1 %s\r\n", resp.Status)
	for k, vs := range resp.Header {
		switch http.CanonicalHeaderKey(k) {
		case "Content-Length", "Transfer-Encoding", "Connection":
			continue
		}
		for _, v := range vs {
			fmt.Fprintf(bw, "%s: %s\r\n", k, v)
		}
	}
	chunked := resp.ContentLength < 0
	if chunked {
		io.WriteString(bw, "Transfer-Encoding: chunked\r\n")
	} else {
		fmt.Fprintf(bw, "Content-Length: %d\r\n", resp.ContentLength)
	}
	io.WriteString(bw, "Connection: close\r\n\r\n")

	remain := p.truncateBytes()
	buf := make([]byte, 4<<10)
	for remain > 0 {
		if len(buf) > remain {
			buf = buf[:remain]
		}
		n, err := resp.Body.Read(buf)
		if n > 0 {
			remain -= n
			if chunked {
				fmt.Fprintf(bw, "%x\r\n", n)
				bw.Write(buf[:n])
				io.WriteString(bw, "\r\n")
			} else {
				bw.Write(buf[:n])
			}
			bw.Flush()
		}
		if err != nil {
			break
		}
	}
	// No terminal chunk, no remaining Content-Length bytes: the close below
	// is the fault.
	bw.Flush()
}
