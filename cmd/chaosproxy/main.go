// Command chaosproxy fronts one mcmserve backend with a deterministic
// fault-injecting reverse proxy (internal/chaosproxy): dropped connections,
// responses truncated mid-body, synthetic 5xx/429 bursts, latency spikes,
// and black-holed requests, armed via the net-* family of the
// internal/faultinject plan grammar. It exists to prove the client-side
// failover machinery against real network damage — in CI smoke tests and in
// staging drills — without touching the backend itself.
//
// Faults fire on exact windows of matching requests (kind@N#M, optionally
// path-filtered with :substr), so a drill knows precisely which requests
// were damaged; on exit the proxy prints how many requests were forwarded
// clean and how many had each fault kind injected, making a vacuous drill
// (a fault armed but never fired) visible.
//
// Usage:
//
//	chaosproxy -backend http://127.0.0.1:8037 -addr :8038 \
//	  -faults 'net-drop@1#2,net-truncate@4#1:/v1/batches/b,net-5xx@7#3,net-429@11#1'
//	sweep -server http://good:8037,http://127.0.0.1:8038   # pool rides through
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"mcmgpu/internal/chaosproxy"
	"mcmgpu/internal/faultinject"
)

func main() {
	var (
		addr    = flag.String("addr", ":8038", "listen address")
		backend = flag.String("backend", "", "backend base URL to forward to (required)")
		faults  = flag.String("faults", "", "comma-separated net-* fault plans, kind@N[#M][:path-filter] (empty = forward everything clean)")
	)
	flag.Parse()

	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *backend == "" {
		logf("chaosproxy: -backend is required")
		os.Exit(2)
	}
	plans, err := faultinject.ParseList(*faults)
	if err != nil {
		logf("chaosproxy: %v", err)
		os.Exit(2)
	}
	p, err := chaosproxy.New(*backend, plans)
	if err != nil {
		logf("chaosproxy: %v", err)
		os.Exit(2)
	}
	p.Logf = logf

	srv := &http.Server{Addr: *addr, Handler: p}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		<-sigc
		// Release black-holed requests first so Close is not held hostage
		// by a connection the proxy itself is strangling.
		p.Close()
		srv.Close()
		close(done)
	}()

	logf("chaosproxy: %s -> %s (%d fault plans armed)", *addr, *backend, len(plans))
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logf("chaosproxy: %v", err)
		os.Exit(1)
	}
	<-done
	st := p.Stats()
	logf("chaosproxy: forwarded %d requests clean", st.Forwarded)
	for kind, n := range st.Injected {
		logf("chaosproxy: injected %s into %d requests", kind, n)
	}
}
