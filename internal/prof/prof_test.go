package prof

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStopWritesGzipProfiles checks that stop leaves both profiles on disk
// whole: pprof writes gzip-compressed protobuf, so a profile that was
// written and closed starts with the gzip magic bytes.
func TestStopWritesGzipProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes without the gzip magic", filepath.Base(path), len(b))
		}
	}
}

// TestMissingDirectoryIsAnError checks that a profile path in a directory
// that does not exist fails with an error naming the package, from Start
// for the CPU profile and from stop for the heap profile.
func TestMissingDirectoryIsAnError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "x.prof")
	if _, err := Start(missing, ""); err == nil || !strings.HasPrefix(err.Error(), "prof:") {
		t.Errorf("Start with a CPU profile in a missing directory: err = %v, want a prof: error", err)
	}
	stop, err := Start("", missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil || !strings.HasPrefix(err.Error(), "prof:") {
		t.Errorf("stop with a heap profile in a missing directory: err = %v, want a prof: error", err)
	}
}
