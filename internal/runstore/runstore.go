// Package runstore is an on-disk, content-addressed result store for
// simulation jobs. It promotes the process-lifetime memo cache of
// internal/runner into durable state: results (and optionally their
// metrics streams) are stored as SHA-256-addressed blobs, and job keys —
// the same Config.Fingerprint()|Spec.Fingerprint()|scale keys the memo
// cache uses — map to blobs through small JSON entry files.
//
// The store's contract is that it never serves a torn or corrupted result:
//
//   - Every write goes through an atomic temp-file + fsync + rename
//     protocol, so a crash leaves either the old state or the new state at
//     any final path, never a prefix of the new one. Staging files live in
//     tmp/ and are discarded on Open.
//   - Every blob read is verified against the SHA-256 the blob is addressed
//     by. A mismatch — bit rot, a torn write that somehow reached the final
//     path, manual tampering — quarantines the blob and its entry and
//     reports a miss, so the caller recomputes instead of consuming bad
//     data.
//   - Open rebuilds the in-memory index by scanning the entry directory.
//     Unparseable or misnamed entries (the on-disk artifact of a crash
//     mid-entry-write under a non-atomic filesystem) are quarantined, not
//     trusted.
//   - Environmental I/O errors (EIO, permissions) are returned to the
//     caller distinctly from misses so it can degrade to recomputing; they
//     never surface as silent wrong answers.
//
// Each failure path is provable: the store consults a faultinject store
// plan (store-torn-write, store-corrupt-blob, store-eio, store-slow-io)
// and injects the corresponding damage deterministically, which is how the
// package tests and CI demonstrate that quarantine, rebuild, and
// degrade-to-compute actually fire rather than being dead code.
//
// Concurrency: one Store value is safe for concurrent use. Multiple
// processes may share a directory — writes are atomic renames and blobs
// are content-addressed, so concurrent writers of the same key converge on
// identical bytes — but eviction accounting is per-process.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mcmgpu/internal/core"
	"mcmgpu/internal/faultinject"
)

// Version is the on-disk format version, recorded in the VERSION file at
// the store root. Open refuses a directory carrying a different version
// rather than guessing at its layout.
const Version = "mcmgpu-runstore-v1"

// ErrInjected is the error returned by operations failed by an armed
// store-eio fault plan. It stands in for the EIO/ENOSPC class of
// environmental failures, and callers must treat it exactly like them:
// log, count, recompute.
var ErrInjected = errors.New("runstore: injected I/O error")

// Entry is the on-disk index record mapping one job key to its blobs. The
// full key is stored (not just its hash) so Open can verify an entry file
// sits under its own KeyID and so hash collisions degrade to misses
// instead of wrong results.
type Entry struct {
	// Key is the full job key the entry stores a result for.
	Key string `json:"key"`
	// Result is the SHA-256 (hex) of the result blob.
	Result string `json:"result"`
	// Metrics is the SHA-256 (hex) of the metrics-stream blob, when the
	// result was stored with one.
	Metrics string `json:"metrics,omitempty"`
	// Size is the total blob bytes the entry accounts for (eviction).
	Size int64 `json:"size"`
	// Unix is the entry's creation time; eviction removes oldest first.
	Unix int64 `json:"unix"`
	// Sum is the SHA-256 (hex) over the other fields. It makes entry files
	// self-verifying: a bit flip that leaves the JSON parseable — flipping
	// a character inside a field name silently drops that field — is still
	// caught by the index rebuild instead of changing the entry's meaning.
	Sum string `json:"sum"`
}

// computeSum returns the checksum over the entry's semantic fields.
func (e *Entry) computeSum() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%s|%d|%d", e.Key, e.Result, e.Metrics, e.Size, e.Unix)))
	return hex.EncodeToString(h[:])
}

// verify reports whether the entry is internally consistent and belongs
// under the given index filename.
func (e *Entry) verify(name string) bool {
	return KeyID(e.Key) == name && e.Sum == e.computeSum()
}

// Stats counts store effectiveness and every failure-recovery event. The
// recovery counters are load-bearing: tests assert them non-zero under
// injected faults, which is what makes each recovery path provably live.
type Stats struct {
	// Hits and Misses count Get outcomes; Puts counts stored results.
	Hits, Misses, Puts uint64
	// Corrupt counts blobs or entries that failed SHA-256 or parse
	// verification; Quarantined counts files moved aside as a result.
	Corrupt, Quarantined uint64
	// GetErrors and PutErrors count environmental I/O failures (the
	// degrade-to-compute path), not verification failures.
	GetErrors, PutErrors uint64
	// SlowOps counts operations delayed by an armed store-slow-io fault.
	SlowOps uint64
	// Evicted counts entries removed by the size bound.
	Evicted uint64
	// Entries and Bytes describe the current index.
	Entries int
	Bytes   int64
}

// String renders the one-line summary the CLIs print next to the memo
// cache stats.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d puts, %d entries (%d bytes), %d corrupt, %d quarantined, %d evicted, %d io errors",
		s.Hits, s.Misses, s.Puts, s.Entries, s.Bytes, s.Corrupt, s.Quarantined, s.Evicted, s.GetErrors+s.PutErrors)
}

// Store is one open run store. Construct with Open; the zero value is not
// usable.
type Store struct {
	dir      string
	logf     func(format string, args ...interface{})
	maxBytes int64
	fault    faultinject.Plan

	mu       sync.Mutex
	index    map[string]*Entry // by KeyID(entry.Key)
	bytes    int64
	qseq     uint64 // quarantine filename disambiguator
	faultOps uint64 // store-fault operation counter (under mu)
	stats    Stats
}

// Option configures Open.
type Option func(*Store)

// WithLogf routes the store's diagnostics (quarantines, degraded
// operations) to the given printf-style sink. The default discards them.
func WithLogf(f func(format string, args ...interface{})) Option {
	return func(s *Store) {
		if f != nil {
			s.logf = f
		}
	}
}

// withMaxBytes bounds the store's blob bytes; Put evicts oldest entries
// first until under the bound. 0 (the default) means unbounded. No caller
// outside the package's tests sets a bound.
func withMaxBytes(n int64) Option {
	return func(s *Store) { s.maxBytes = n }
}

// WithFault arms a store fault plan (see internal/faultinject). Non-store
// plans are ignored, so callers can pass MCMGPU_FAULT's plan through
// unconditionally.
func WithFault(p faultinject.Plan) Option {
	return func(s *Store) {
		if p.IsStore() {
			s.fault = p
		}
	}
}

// KeyID returns the store's identifier for a job key: the first 16 bytes
// of its SHA-256, hex-encoded. Entry files are named by it, and services
// use it as the public, content-derived job ID (resubmitting the same job
// yields the same ID, which is what makes resubmission idempotent).
func KeyID(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:16])
}

// Open opens (creating if needed) a store rooted at dir, discards staging
// files from any interrupted writer, and rebuilds the index by scanning
// the entry directory. Entries that fail verification — unparseable JSON,
// a filename that is not the KeyID of the key inside — are quarantined.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:   dir,
		logf:  func(string, ...interface{}) {},
		index: map[string]*Entry{},
	}
	for _, o := range opts {
		o(s)
	}
	for _, sub := range []string{"", "tmp", "blobs", "index", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("runstore: %w", err)
		}
	}
	if err := s.checkVersion(); err != nil {
		return nil, err
	}
	// Staging files from a writer that died between CreateTemp and rename
	// are garbage, not data — but with several server processes sharing one
	// store, a *fresh* staging file may belong to a live writer in another
	// process, and sweeping it would steal the rename source out from under
	// a concurrent Put (or a concurrent first-open VERSION write). Only
	// files old enough that no live writer can still own them are orphans.
	if tmps, err := os.ReadDir(filepath.Join(dir, "tmp")); err == nil {
		for _, e := range tmps {
			if info, ierr := e.Info(); ierr == nil && time.Since(info.ModTime()) < stagingGrace {
				continue
			}
			os.Remove(filepath.Join(dir, "tmp", e.Name()))
		}
	}
	if err := s.rebuildIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// stagingGrace is how old a tmp/ staging file must be before Open treats
// it as a dead writer's orphan. A live writer holds a staging file for the
// duration of one write + fsync + rename — seconds at the outside — so
// anything past the grace is provably abandoned, and anything within it is
// left alone in case a concurrently-open process owns it.
const stagingGrace = 10 * time.Minute

// checkVersion validates or initializes the VERSION file.
func (s *Store) checkVersion() error {
	path := filepath.Join(s.dir, "VERSION")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if werr := s.writeAtomic(path, []byte(Version+"\n"), wNone); werr != nil {
			// Several processes can race to initialize a fresh directory.
			// If VERSION is in place and correct by the time our write
			// fails, a concurrent opener won the race — the store is
			// initialized, and by whom is irrelevant.
			if data, rerr := os.ReadFile(path); rerr == nil &&
				strings.TrimSpace(string(data)) == Version {
				return nil
			}
			return werr
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if got := strings.TrimSpace(string(data)); got != Version {
		return fmt.Errorf("runstore: %s holds format %q, want %q", s.dir, got, Version)
	}
	return nil
}

// rebuildIndex scans index/ into memory, quarantining entries that fail
// verification. This is the crash-recovery path: a torn entry write (under
// an injected store-torn-write fault, or a real crash on a filesystem
// without atomic rename durability) surfaces here as unparseable JSON or a
// name/key mismatch, and is moved aside instead of trusted.
func (s *Store) rebuildIndex() error {
	idxDir := filepath.Join(s.dir, "index")
	files, err := os.ReadDir(idxDir)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		path := filepath.Join(idxDir, f.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			s.logf("runstore: unreadable entry %s: %v", f.Name(), err)
			s.stats.GetErrors++
			continue
		}
		var e Entry
		if jerr := json.Unmarshal(data, &e); jerr != nil || !e.verify(f.Name()) {
			s.quarantineLocked(path, "entry failed verification on open")
			continue
		}
		s.index[f.Name()] = &e
		s.bytes += e.Size
	}
	return nil
}

func (s *Store) path(parts ...string) string {
	return filepath.Join(append([]string{s.dir}, parts...)...)
}

// blobPath fans blobs out under their first hex byte so no single
// directory grows unboundedly.
func (s *Store) blobPath(sum string) string {
	return s.path("blobs", sum[:2], sum)
}

// quarantineLocked moves a suspect file into quarantine/ under a unique
// name and counts it. Callers hold mu.
func (s *Store) quarantineLocked(path, why string) {
	s.qseq++
	dst := s.path("quarantine", fmt.Sprintf("%s.%d", filepath.Base(path), s.qseq))
	if err := os.Rename(path, dst); err != nil {
		// Removal is an acceptable fallback: the file is known-bad, and
		// leaving it in place would re-trip verification forever.
		os.Remove(path)
	}
	s.stats.Corrupt++
	s.stats.Quarantined++
	s.logf("runstore: quarantined %s: %s", filepath.Base(path), why)
}

// Fault-injection write modes (see internal/faultinject store kinds).
type wmode int

const (
	wNone    wmode = iota
	wTorn          // truncated content at the final path, no rename, silent success
	wCorrupt       // one flipped byte, otherwise normal atomic write
	wEIO           // fail the operation outright
)

// writeFault consults the armed fault plan for one write operation on key,
// advancing the operation counter when the plan matches.
func (s *Store) writeFault(key string) wmode {
	p := s.fault
	if !p.MatchesStore(key) {
		return wNone
	}
	s.mu.Lock()
	n := s.faultOps
	s.faultOps++
	slow := p.Kind == faultinject.StoreSlowIO && n >= p.AtEvent
	if slow {
		s.stats.SlowOps++
	}
	s.mu.Unlock()
	if n < p.AtEvent {
		return wNone
	}
	switch p.Kind {
	case faultinject.StoreTornWrite:
		return wTorn
	case faultinject.StoreCorruptBlob:
		return wCorrupt
	case faultinject.StoreEIO:
		return wEIO
	case faultinject.StoreSlowIO:
		time.Sleep(2 * time.Millisecond)
	}
	return wNone
}

// readFault consults the armed fault plan for one read operation on key.
// Only the eio and slow-io kinds apply to reads; the write corruptions
// count write operations exclusively so their @op indices are stable.
func (s *Store) readFault(key string) error {
	p := s.fault
	if !p.MatchesStore(key) {
		return nil
	}
	if p.Kind != faultinject.StoreEIO && p.Kind != faultinject.StoreSlowIO {
		return nil
	}
	s.mu.Lock()
	n := s.faultOps
	s.faultOps++
	fire := n >= p.AtEvent
	if fire && p.Kind == faultinject.StoreSlowIO {
		s.stats.SlowOps++
	}
	s.mu.Unlock()
	if !fire {
		return nil
	}
	if p.Kind == faultinject.StoreEIO {
		return ErrInjected
	}
	time.Sleep(2 * time.Millisecond)
	return nil
}

// writeAtomic writes data to final via the temp-file + fsync + rename
// protocol, or applies the requested injected damage instead.
func (s *Store) writeAtomic(final string, data []byte, mode wmode) error {
	switch mode {
	case wEIO:
		return ErrInjected
	case wTorn:
		// The crash artifact: a prefix of the data at the final path. The
		// write "succeeds" — real torn writes do not announce themselves.
		return os.WriteFile(final, data[:len(data)/2], 0o644)
	case wCorrupt:
		if len(data) > 0 {
			data = append([]byte(nil), data...)
			data[len(data)/2] ^= 0x40
		}
	}
	f, err := os.CreateTemp(s.path("tmp"), "put-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// putBlob stores data content-addressed, returning its hex SHA-256 and the
// bytes newly written (0 when the blob already existed — deduplication is
// what content addressing buys).
func (s *Store) putBlob(key string, data []byte) (string, int64, error) {
	sum := sha256.Sum256(data)
	hexSum := hex.EncodeToString(sum[:])
	final := s.blobPath(hexSum)
	if existing, err := os.ReadFile(final); err == nil {
		// Deduplicate only onto verified bytes: trusting an unverified
		// existing file would let a corrupted blob survive the very Put
		// that should heal it.
		if got := sha256.Sum256(existing); got == sum {
			return hexSum, 0, nil
		}
		s.mu.Lock()
		s.quarantineLocked(final, "existing blob content does not match its address")
		s.mu.Unlock()
	}
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return "", 0, err
	}
	if err := s.writeAtomic(final, data, s.writeFault(key)); err != nil {
		return "", 0, err
	}
	return hexSum, int64(len(data)), nil
}

// getBlob reads and verifies one blob. A verification failure quarantines
// the blob and returns errCorrupt; an environmental failure returns the
// underlying error. Missing files return os.ErrNotExist (the caller
// decides whether that is corruption — a dangling entry — or a plain
// miss).
var errCorrupt = errors.New("runstore: blob failed SHA-256 verification")

func (s *Store) getBlob(key, hexSum string) ([]byte, error) {
	if err := s.readFault(key); err != nil {
		return nil, err
	}
	path := s.blobPath(hexSum)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != hexSum {
		s.mu.Lock()
		s.quarantineLocked(path, "content does not match address")
		s.mu.Unlock()
		return nil, errCorrupt
	}
	return data, nil
}

// Put stores a successful result (and optionally its metrics stream) under
// key. Errors are environmental — the caller should log and continue, the
// result it computed is still valid. Only successful results belong in the
// store: errors are either deterministic (recomputing is as cheap as
// re-reading, and a stored error could outlive the bug that produced it)
// or transient (persisting them would poison every future process), the
// same parity the in-memory cache keeps by evicting transient failures.
func (s *Store) Put(key string, res *core.Result, metricsStream []byte) error {
	if res == nil {
		return errors.New("runstore: Put of nil result")
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	resSum, n1, err := s.putBlob(key, data)
	if err != nil {
		return s.putFailed(err)
	}
	e := &Entry{Key: key, Result: resSum, Size: n1, Unix: time.Now().Unix()}
	if len(metricsStream) > 0 {
		metSum, n2, err := s.putBlob(key, metricsStream)
		if err != nil {
			return s.putFailed(err)
		}
		e.Metrics = metSum
		e.Size += n2
	}
	e.Sum = e.computeSum()
	entryData, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	id := KeyID(key)
	if err := s.writeAtomic(s.path("index", id), entryData, s.writeFault(key)); err != nil {
		return s.putFailed(err)
	}
	s.mu.Lock()
	if old, ok := s.index[id]; ok {
		s.bytes -= old.Size
	}
	s.index[id] = e
	s.bytes += e.Size
	s.stats.Puts++
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

func (s *Store) putFailed(err error) error {
	s.mu.Lock()
	s.stats.PutErrors++
	s.mu.Unlock()
	s.logf("runstore: put failed (store degraded, result kept in memory only): %v", err)
	return fmt.Errorf("runstore: put: %w", err)
}

// Get returns the stored result and metrics stream for key. ok reports a
// verified hit. A corrupt blob or dangling entry is quarantined and
// reported as a miss (ok false, nil error) — the caller recomputes and the
// store heals. A non-nil error is environmental (EIO class): the caller
// should log it and degrade to computing, never fail the job on it.
func (s *Store) Get(key string) (res *core.Result, metricsStream []byte, ok bool, err error) {
	return s.get(KeyID(key), key, true)
}

// GetByID is Get addressed by KeyID. Services use it to serve results by
// content-derived job ID across restarts, when the full key of a past
// submission is no longer in memory.
func (s *Store) GetByID(id string) (res *core.Result, metricsStream []byte, ok bool, err error) {
	return s.get(id, "", false)
}

func (s *Store) get(id, key string, haveKey bool) (*core.Result, []byte, bool, error) {
	s.mu.Lock()
	e, found := s.index[id]
	if found && haveKey && e.Key != key {
		// A 128-bit collision, or a tampered entry: never serve a result
		// for a different key than the caller asked about.
		found = false
	}
	if !found {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, nil, false, nil
	}
	entry := *e
	s.mu.Unlock()

	data, err := s.getBlob(entry.Key, entry.Result)
	if err != nil {
		return nil, nil, false, s.getFailed(id, entry, err)
	}
	var res core.Result
	if jerr := json.Unmarshal(data, &res); jerr != nil {
		// The hash verified, so this is a format bug or a foreign blob;
		// either way the entry cannot be served. Quarantine and miss.
		s.dropEntry(id, entry, "result blob is not a valid Result")
		return nil, nil, false, nil
	}
	var stream []byte
	if entry.Metrics != "" {
		stream, err = s.getBlob(entry.Key, entry.Metrics)
		if err != nil {
			return nil, nil, false, s.getFailed(id, entry, err)
		}
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	return &res, stream, true, nil
}

// getFailed classifies a blob read failure: verification failures and
// dangling entries quarantine the entry and degrade to a miss; anything
// else is environmental and surfaces as an error for the caller to degrade
// on.
func (s *Store) getFailed(id string, e Entry, err error) error {
	if errors.Is(err, errCorrupt) {
		s.dropEntry(id, e, "blob failed verification")
		return nil
	}
	if errors.Is(err, os.ErrNotExist) {
		s.dropEntry(id, e, "entry references a missing blob")
		return nil
	}
	s.mu.Lock()
	s.stats.Misses++
	s.stats.GetErrors++
	s.mu.Unlock()
	s.logf("runstore: get failed (degrading to compute): %v", err)
	return fmt.Errorf("runstore: get: %w", err)
}

// dropEntry quarantines an entry file, removes it from the index, and
// counts the event as a corruption-recovery miss.
func (s *Store) dropEntry(id string, e Entry, why string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.index[id]; ok && cur.Key == e.Key {
		delete(s.index, id)
		s.bytes -= cur.Size
	}
	s.quarantineLocked(s.path("index", id), why)
	s.stats.Misses++
}

// evictLocked removes oldest-first entries until the store is under its
// byte bound. Blobs are deleted only when no surviving entry references
// them (content addressing means entries can share blobs). Callers hold
// mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		id string
		e  *Entry
	}
	order := make([]aged, 0, len(s.index))
	for id, e := range s.index {
		order = append(order, aged{id, e})
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].e.Unix != order[b].e.Unix {
			return order[a].e.Unix < order[b].e.Unix
		}
		return order[a].id < order[b].id
	})
	for _, v := range order {
		if s.bytes <= s.maxBytes || len(s.index) <= 1 {
			return
		}
		delete(s.index, v.id)
		s.bytes -= v.e.Size
		os.Remove(s.path("index", v.id))
		for _, sum := range []string{v.e.Result, v.e.Metrics} {
			if sum != "" && !s.blobReferencedLocked(sum) {
				os.Remove(s.blobPath(sum))
			}
		}
		s.stats.Evicted++
		s.logf("runstore: evicted %s (%d bytes) to stay under %d bytes", v.id, v.e.Size, s.maxBytes)
	}
}

// blobReferencedLocked reports whether any indexed entry references sum.
func (s *Store) blobReferencedLocked(sum string) bool {
	for _, e := range s.index {
		if e.Result == sum || e.Metrics == sum {
			return true
		}
	}
	return false
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Bytes = s.bytes
	return st
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}
