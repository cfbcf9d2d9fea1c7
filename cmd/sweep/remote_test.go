package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmgpu/internal/runstore/client"
)

// TestRemoteHonorsTimeout: -timeout bounds the remote phase as it bounds
// the local one. The stub backend is ready, accepts the batch, and answers
// every poll with a snapshot that never reaches done; run must give up at
// the deadline and exit 1 with an error naming it.
func TestRemoteHonorsTimeout(t *testing.T) {
	var (
		mu    sync.Mutex
		batch = client.BatchStatus{ID: "b1"}
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/readyz":
		case r.Method == http.MethodPost && r.URL.Path == "/v1/batches":
			var m client.Manifest
			if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			batch.Jobs = nil
			for i := range m.Jobs {
				batch.Jobs = append(batch.Jobs, client.JobStatus{ID: fmt.Sprint("j", i), State: client.StateQueued})
			}
			bs := batch
			mu.Unlock()
			json.NewEncoder(w).Encode(bs)
		case r.URL.Path == "/v1/batches/b1":
			mu.Lock()
			bs := batch
			mu.Unlock()
			json.NewEncoder(w).Encode(bs)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	oldArgs, oldFlags, oldStderr := os.Args, flag.CommandLine, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stderr = oldArgs, oldFlags, oldStderr }()
	os.Args = []string{"sweep", "-server", ts.URL, "-timeout", "500ms",
		"-workloads", "Stream", "-links", "768", "-l15", "0", "-refine", "1", "-nocache"}
	flag.CommandLine = flag.NewFlagSet("sweep", flag.ContinueOnError)
	stderr, err := os.Create(t.TempDir() + "/stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	os.Stderr = stderr

	done := make(chan int, 1)
	go func() { done <- run() }()
	select {
	case code := <-done:
		out, err := os.ReadFile(stderr.Name())
		if err != nil {
			t.Fatal(err)
		}
		if code != 1 || !strings.Contains(string(out), "-timeout 500ms") || !strings.Contains(string(out), "deadline") {
			t.Fatalf("run exited %d with stderr:\n%s\nwant exit 1 and an error naming the -timeout deadline", code, out)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("remote sweep still running 15s past a 500ms -timeout")
	}
}
