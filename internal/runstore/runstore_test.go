package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcmgpu/internal/core"
	"mcmgpu/internal/faultinject"
)

// fakeResult builds a deterministic synthetic result for a key so tests
// can assert byte-identical round trips without running simulations.
func fakeResult(key string) *core.Result {
	var seed uint64
	for _, c := range []byte(key) {
		seed = seed*131 + uint64(c)
	}
	return &core.Result{
		Config:           "cfg-" + key,
		Workload:         "wl-" + key,
		Cycles:           1000 + seed%100000,
		WarpInstrs:       seed % 7777,
		MemOps:           seed % 555,
		LineReads:        seed % 333,
		LineWrites:       seed % 222,
		InterModuleBytes: seed % 999999,
		InterModuleGBps:  float64(seed%1000) / 7.0,
		DRAMBytes:        seed % 123456,
		L1HitRate:        float64(seed%997) / 997.0,
		L1Accesses:       seed % 10000,
		L2HitRate:        float64(seed%991) / 991.0,
		L2Accesses:       seed % 9000,
		LocalFraction:    float64(seed%89) / 89.0,
		PeakDRAMUtil:     float64(seed%83) / 83.0,
		AvgDRAMUtil:      float64(seed%79) / 79.0,
		MaxLinkUtil:      float64(seed%73) / 73.0,
		EnergyPJ: core.EnergyBreakdown{
			Chip: float64(seed % 311), Package: float64(seed % 313),
			Board: float64(seed % 317), DRAM: float64(seed % 331),
			Total: float64(seed%311 + seed%313 + seed%317 + seed%331),
		},
	}
}

func mustOpen(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	want := fakeResult("k1")
	if err := s.Put("k1", want, []byte("metrics-stream\n")); err != nil {
		t.Fatal(err)
	}
	got, stream, ok, err := s.Get("k1")
	if err != nil || !ok {
		t.Fatalf("Get = ok %v, err %v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if string(stream) != "metrics-stream\n" {
		t.Fatalf("metrics stream = %q", stream)
	}
	// A miss is ok=false with no error.
	if _, _, ok, err := s.Get("absent"); ok || err != nil {
		t.Fatalf("miss = ok %v, err %v", ok, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenServesPriorResults(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	want := fakeResult("persist")
	if err := s.Put("persist", want, nil); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	got, _, ok, err := s2.Get("persist")
	if err != nil || !ok {
		t.Fatalf("reopened Get = ok %v, err %v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reopened store served a different result")
	}
	// GetByID serves the same entry by content-derived ID.
	byID, _, ok, err := s2.GetByID(KeyID("persist"))
	if err != nil || !ok || !reflect.DeepEqual(byID, want) {
		t.Fatalf("GetByID = %+v ok %v err %v", byID, ok, err)
	}
}

func TestVersionMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("other-format-v9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("Open on foreign format = %v, want version error", err)
	}
}

// TestCorruptBlobQuarantinedAndRecomputable proves the corrupt-blob
// recovery path: a store whose writes were bit-flipped by the fault plan
// must detect the damage on read, quarantine it, and report a miss — never
// serve the corrupted result.
func TestCorruptBlobQuarantinedAndRecomputable(t *testing.T) {
	dir := t.TempDir()
	bad := mustOpen(t, dir, WithFault(faultinject.Plan{Kind: faultinject.StoreCorruptBlob}))
	if err := bad.Put("k", fakeResult("k"), nil); err != nil {
		t.Fatal(err)
	}
	// A fresh, fault-free store over the same directory: the read must
	// detect the mismatch.
	s := mustOpen(t, dir)
	got, _, ok, err := s.Get("k")
	if err != nil {
		t.Fatalf("corrupt blob surfaced as environmental error: %v", err)
	}
	if ok || got != nil {
		t.Fatalf("corrupt blob was served: %+v", got)
	}
	st := s.Stats()
	if st.Corrupt == 0 || st.Quarantined == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	q, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(q) == 0 {
		t.Fatal("nothing quarantined on disk")
	}
	// The store heals: a fresh Put under the same key works and serves.
	if err := s.Put("k", fakeResult("k"), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Get("k"); !ok || err != nil {
		t.Fatalf("healed Get = ok %v, err %v", ok, err)
	}
}

// TestTornWriteDetected proves the torn-write recovery path: a write
// truncated at the final path (the crash artifact) must fail verification
// on read and be quarantined, and a torn entry file must be quarantined by
// the index rebuild on Open.
func TestTornWriteDetected(t *testing.T) {
	// Op 0 of a Put is the result blob write: torn blob.
	dir := t.TempDir()
	bad := mustOpen(t, dir, WithFault(faultinject.Plan{Kind: faultinject.StoreTornWrite, AtEvent: 0}))
	if err := bad.Put("k", fakeResult("k"), nil); err != nil {
		t.Fatalf("torn write must be silent, got %v", err)
	}
	s := mustOpen(t, dir)
	if _, _, ok, err := s.Get("k"); ok || err != nil {
		t.Fatalf("torn blob Get = ok %v, err %v (must miss)", ok, err)
	}
	if s.Stats().Quarantined == 0 {
		t.Fatal("torn blob not quarantined")
	}

	// Op 1 of a metrics-free Put is the entry write: torn entry, caught by
	// the rebuild on Open.
	dir2 := t.TempDir()
	bad2 := mustOpen(t, dir2, WithFault(faultinject.Plan{Kind: faultinject.StoreTornWrite, AtEvent: 1}))
	if err := bad2.Put("k2", fakeResult("k2"), nil); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir2)
	if s2.Len() != 0 {
		t.Fatalf("torn entry survived the index rebuild (%d entries)", s2.Len())
	}
	if s2.Stats().Quarantined == 0 {
		t.Fatal("torn entry not quarantined on open")
	}
	if _, _, ok, _ := s2.Get("k2"); ok {
		t.Fatal("torn entry was served")
	}
}

// TestEIODegradesToError proves the degrade-to-compute path: injected I/O
// errors surface as errors (so callers recompute) and never as hits or
// panics, on both read and write sides.
func TestEIODegradesToError(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put("k", fakeResult("k"), nil); err != nil {
		t.Fatal(err)
	}
	eio := mustOpen(t, dir, WithFault(faultinject.Plan{Kind: faultinject.StoreEIO}))
	if _, _, ok, err := eio.Get("k"); ok || err == nil {
		t.Fatalf("EIO Get = ok %v, err %v (want error, no hit)", ok, err)
	}
	if err := eio.Put("k2", fakeResult("k2"), nil); err == nil {
		t.Fatal("EIO Put succeeded")
	}
	st := eio.Stats()
	if st.GetErrors == 0 || st.PutErrors == 0 {
		t.Fatalf("io errors not counted: %+v", st)
	}
	// The healthy store still serves the original entry — EIO did not
	// corrupt anything.
	if _, _, ok, err := s.Get("k"); !ok || err != nil {
		t.Fatalf("healthy Get after EIO session = ok %v, err %v", ok, err)
	}
}

// TestSlowIOCounted proves the slow-io fault actually delays and is
// observable (anti-vacuity for the timeout/progress story).
func TestSlowIOCounted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, WithFault(faultinject.Plan{Kind: faultinject.StoreSlowIO}))
	if err := s.Put("k", fakeResult("k"), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Get("k"); !ok || err != nil {
		t.Fatalf("slow Get = ok %v, err %v", ok, err)
	}
	if s.Stats().SlowOps == 0 {
		t.Fatal("slow-io fault never fired")
	}
}

// TestKeyFilterRestrictsFault asserts a ':filter' store plan perturbs only
// matching keys.
func TestKeyFilterRestrictsFault(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, WithFault(faultinject.Plan{Kind: faultinject.StoreEIO, Workload: "victim"}))
	if err := s.Put("victim-key", fakeResult("v"), nil); err == nil {
		t.Fatal("filtered EIO did not fire on matching key")
	}
	if err := s.Put("other-key", fakeResult("o"), nil); err != nil {
		t.Fatalf("filtered EIO fired on foreign key: %v", err)
	}
}

// TestEviction proves the size bound evicts oldest-first and keeps the
// store consistent.
func TestEviction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, withMaxBytes(1500))
	var keys []string
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		keys = append(keys, k)
		if err := s.Put(k, fakeResult(k), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evicted == 0 {
		t.Fatalf("nothing evicted under a %d-byte bound (%d bytes held)", 1500, st.Bytes)
	}
	if st.Bytes > 1500 && st.Entries > 1 {
		t.Fatalf("store over bound after eviction: %+v", st)
	}
	// Whatever survived must still verify; whatever was evicted must be a
	// clean miss. Reopen to prove the on-disk state matches the index.
	s2 := mustOpen(t, dir)
	surviving := 0
	for _, k := range keys {
		got, _, ok, err := s2.Get(k)
		if err != nil {
			t.Fatalf("Get(%s) after eviction: %v", k, err)
		}
		if ok {
			surviving++
			if !reflect.DeepEqual(got, fakeResult(k)) {
				t.Fatalf("surviving entry %s diverged", k)
			}
		}
	}
	if surviving == 0 || surviving == len(keys) {
		t.Fatalf("eviction kept %d of %d entries", surviving, len(keys))
	}
}

// TestMetricsBlobCorruptionDropsWholeEntry: a verified result with a
// corrupt metrics blob must not be half-served.
func TestMetricsBlobCorruptionDropsWholeEntry(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put("k", fakeResult("k"), []byte("stream-bytes")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the metrics blob on disk directly.
	var e Entry
	data, err := os.ReadFile(filepath.Join(dir, "index", KeyID("k")))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.blobPath(e.Metrics), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Get("k"); ok || err != nil {
		t.Fatalf("entry with corrupt metrics served: ok %v err %v", ok, err)
	}
	if s.Stats().Quarantined == 0 {
		t.Fatal("corrupt metrics blob not quarantined")
	}
}

// TestOrphanTmpFilesCleared: staging files from a crashed writer are
// discarded on Open — but only once they are old enough that no live
// writer in a concurrently-open process can still own them. A fresh
// staging file must survive, or a restarting server sharing the store
// would steal the rename source out from under a neighbor's in-flight Put.
func TestOrphanTmpFilesCleared(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir)
	orphan := filepath.Join(dir, "tmp", "put-orphan")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "tmp", "put-live")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-stagingGrace - time.Minute)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("aged orphan staging file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh staging file swept by Open (would break a live concurrent writer): %v", err)
	}
}

// TestConcurrentOpenFreshDir: several processes (modeled as goroutines —
// the Store shares no in-process state across Opens) racing to initialize
// one fresh directory must all succeed. This is the multi-backend
// topology's first breath: N servers started together against one empty
// shared store, every one of them durable, none degraded to memory-only.
func TestConcurrentOpenFreshDir(t *testing.T) {
	dir := t.TempDir()
	const openers = 8
	errs := make(chan error, openers)
	for i := 0; i < openers; i++ {
		go func() {
			_, err := Open(dir)
			errs <- err
		}()
	}
	for i := 0; i < openers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent Open of a fresh dir failed: %v", err)
		}
	}
}
