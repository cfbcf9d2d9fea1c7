package chaosproxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcmgpu/internal/faultinject"
)

// testBackend serves a fixed-length JSON body on /ok and a chunked body on
// /stream — the two framings the real service's responses arrive in (a Go
// server sends a body larger than its response buffer chunked).
func testBackend() *httptest.Server {
	mux := http.NewServeMux()
	body := `{"ok":true,"pad":"` + strings.Repeat("x", 400) + `"}`
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher := w.(http.Flusher)
		for i := 0; i < 8; i++ {
			fmt.Fprintf(w, `{"line":%d,"pad":%q}`+"\n", i, strings.Repeat("y", 60))
			flusher.Flush()
		}
	})
	return httptest.NewServer(mux)
}

func proxyFor(t *testing.T, backend string, plans string) (*Proxy, *httptest.Server) {
	t.Helper()
	pl, err := faultinject.ParseList(plans)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(backend, pl)
	if err != nil {
		t.Fatal(err)
	}
	p.Logf = t.Logf
	ts := httptest.NewServer(p)
	t.Cleanup(func() { ts.Close(); p.Close() })
	return p, ts
}

func TestRejectsNonNetPlans(t *testing.T) {
	if _, err := New("http://x", []faultinject.Plan{{Kind: faultinject.Panic}}); err == nil {
		t.Fatal("engine plan accepted on the wire")
	}
	if _, err := New("http://x", []faultinject.Plan{{Kind: faultinject.StoreEIO}}); err == nil {
		t.Fatal("store plan accepted on the wire")
	}
}

// TestForwardClean: with no plans armed the proxy is a transparent pipe.
func TestForwardClean(t *testing.T) {
	bk := testBackend()
	defer bk.Close()
	p, ts := proxyFor(t, bk.URL, "")
	resp, err := http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || !strings.Contains(string(data), `"ok":true`) {
		t.Fatalf("clean forward damaged the body: %v %q", err, data)
	}
	if st := p.Stats(); st.Forwarded != 1 || len(st.Injected) != 0 {
		t.Fatalf("stats %+v, want 1 forwarded, nothing injected", st)
	}
}

// TestDropSeversConnection: the faulted request dies at the transport
// layer with no response; the next one sails through.
func TestDropSeversConnection(t *testing.T) {
	bk := testBackend()
	defer bk.Close()
	p, ts := proxyFor(t, bk.URL, "net-drop@0#1")
	if _, err := http.Get(ts.URL + "/ok"); err == nil {
		t.Fatal("dropped request returned a response")
	}
	resp, err := http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatalf("request after the drop window failed: %v", err)
	}
	resp.Body.Close()
	if st := p.Stats(); st.Injected["net-drop"] != 1 {
		t.Fatalf("stats %+v, want 1 net-drop injected", st)
	}
}

// TestTruncateContentLength: a fixed-length body cut mid-way surfaces as
// an unexpected EOF, never as a short-but-clean read.
func TestTruncateContentLength(t *testing.T) {
	bk := testBackend()
	defer bk.Close()
	p, ts := proxyFor(t, bk.URL, "net-truncate@0#1")
	resp, err := http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("truncated read reported success with %d bytes", len(data))
	}
	if len(data) == 0 || len(data) > 120 {
		t.Fatalf("forwarded %d bytes before the cut, want (0, 120]", len(data))
	}
	if st := p.Stats(); st.Injected["net-truncate"] != 1 {
		t.Fatalf("stats %+v, want 1 net-truncate injected", st)
	}
}

// TestTruncateStream: a chunked body cut mid-way ends in an unexpected EOF
// after the bytes before the cut, never in a clean short read.
func TestTruncateStream(t *testing.T) {
	bk := testBackend()
	defer bk.Close()
	_, ts := proxyFor(t, bk.URL, "net-truncate@0#1")
	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("truncated stream read reported success with %d bytes", len(data))
	}
	if !strings.Contains(string(data), `"line":0`) {
		t.Fatalf("no complete line made it through before the cut: %q", data)
	}
}

// TestInjected5xxAnd429: synthetic statuses come with JSON error bodies
// and, for 429, a Retry-After header; the window closes on schedule.
func TestInjected5xxAnd429(t *testing.T) {
	bk := testBackend()
	defer bk.Close()
	p, ts := proxyFor(t, bk.URL, "net-5xx@0#2,net-429@2#1")
	for i, want := range []int{503, 503, 429, 200} {
		resp, err := http.Get(ts.URL + "/ok")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.StatusCode != want {
			t.Fatalf("request %d: status %d, want %d", i, resp.StatusCode, want)
		}
		if want == 429 && resp.Header.Get("Retry-After") == "" {
			t.Fatal("injected 429 has no Retry-After")
		}
		resp.Body.Close()
	}
	st := p.Stats()
	if st.Injected["net-5xx"] != 2 || st.Injected["net-429"] != 1 || st.Forwarded != 1 {
		t.Fatalf("stats %+v, want 2x 5xx, 1x 429, 1 forwarded", st)
	}
}

// TestLatencyDelays: the spike defers the response without damaging it.
func TestLatencyDelays(t *testing.T) {
	bk := testBackend()
	defer bk.Close()
	p, ts := proxyFor(t, bk.URL, "net-latency@0#1")
	p.Latency = 80 * time.Millisecond
	start := time.Now()
	resp, err := http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Fatalf("latency fault delayed only %v", el)
	}
	if data, err := io.ReadAll(resp.Body); err != nil || !strings.Contains(string(data), `"ok":true`) {
		t.Fatalf("latency fault damaged the body: %v", err)
	}
}

// TestBlackholeHangs: a black-holed request never answers; only the
// client's own timeout frees it, and Close releases any stragglers.
func TestBlackholeHangs(t *testing.T) {
	bk := testBackend()
	defer bk.Close()
	p, ts := proxyFor(t, bk.URL, "net-blackhole@0")
	c := &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	if _, err := c.Get(ts.URL + "/ok"); err == nil {
		t.Fatal("black-holed request returned")
	}
	if el := time.Since(start); el < 100*time.Millisecond {
		t.Fatalf("blackhole answered after only %v", el)
	}
	if st := p.Stats(); st.Injected["net-blackhole"] == 0 {
		t.Fatalf("stats %+v, want net-blackhole injected", st)
	}
}

// TestPathFilterScopesFault: a filtered plan damages only its endpoint
// family and its counter only advances on matching requests.
func TestPathFilterScopesFault(t *testing.T) {
	bk := testBackend()
	defer bk.Close()
	_, ts := proxyFor(t, bk.URL, "net-5xx@0#1:/stream")
	resp, err := http.Get(ts.URL + "/ok")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("unfiltered path was damaged: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("filtered path got %d, want injected 503", resp.StatusCode)
	}
	resp.Body.Close()
}
