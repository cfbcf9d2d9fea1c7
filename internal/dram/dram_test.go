package dram

import (
	"testing"
	"testing/quick"
)

// newPartition initializes a partition as a machine does.
func newPartition(id int, gbps float64, latency uint64) *Partition {
	p := new(Partition)
	p.Init(id, gbps, latency)
	return p
}

func TestReadLatencyAndBandwidth(t *testing.T) {
	p := newPartition(0, 768, 100)
	// One 768-byte read: 1 cycle serialization + 100 cycles latency.
	if got := p.Read(0, 768); got != 101 {
		t.Fatalf("read completes at %d, want 101", got)
	}
	// A queued read waits for the first transfer.
	if got := p.Read(0, 768); got != 102 {
		t.Fatalf("queued read completes at %d, want 102", got)
	}
	if p.Bytes() != 1536 {
		t.Fatalf("Bytes = %d", p.Bytes())
	}
	if p.Reads() != 2 || p.Writes() != 0 {
		t.Fatalf("Reads, Writes = %d, %d; want 2, 0", p.Reads(), p.Writes())
	}
}

func TestWriteConsumesBandwidth(t *testing.T) {
	p := newPartition(1, 128, 100)
	p.Write(0, 1280) // 10 cycles of device time
	if p.Bytes() != 1280 || p.Writes() != 1 {
		t.Fatalf("after one write: Bytes = %d, Writes = %d", p.Bytes(), p.Writes())
	}
	if got := p.Read(0, 128); got != 111 {
		t.Fatalf("read behind write completes at %d, want 111", got)
	}
	if p.Bytes() != 1280+128 {
		t.Fatalf("Bytes = %d", p.Bytes())
	}
}

func TestUtilization(t *testing.T) {
	p := newPartition(0, 768, 100)
	p.Read(0, 768*50) // 50 busy cycles
	if u := p.Utilization(100); u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %v, want ~0.5", u)
	}
}

// Property: a saturating stream of reads completes no faster than
// totalBytes/bandwidth, i.e. the device never exceeds its configured
// bandwidth.
func TestBandwidthCeilingProperty(t *testing.T) {
	f := func(nReq uint8, szRaw uint16) bool {
		p := newPartition(0, 256, 10)
		sz := uint64(szRaw%2048) + 1
		var last uint64
		n := int(nReq) + 1
		for i := 0; i < n; i++ {
			last = uint64(p.Read(0, sz))
		}
		minCycles := float64(uint64(n)*sz) / 256
		return float64(last) >= minCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInitResetsInPlace re-initializes a used partition: its counters and
// its device's timeline start over, its name follows the new index, and
// Init allocates nothing.
func TestInitResetsInPlace(t *testing.T) {
	p := newPartition(0, 768, 100)
	p.Read(0, 768*50)
	p.Write(0, 768)
	if a := testing.AllocsPerRun(10, func() { p.Init(5, 768, 100) }); a != 0 {
		t.Errorf("Init allocated %v objects, want 0", a)
	}
	if p.Bytes() != 0 || p.Reads() != 0 || p.Writes() != 0 || p.Units() != 0 || p.BusyThrough(1000) != 0 {
		t.Fatalf("re-initialized partition kept state: %d bytes, %d reads, %d writes, %d device units",
			p.Bytes(), p.Reads(), p.Writes(), p.Units())
	}
	if got := p.Read(0, 768); got != 101 {
		t.Fatalf("read on the re-initialized partition completes at %d, want 101", got)
	}
	if p.Name() != "dram-5" {
		t.Fatalf("Name() = %q, want dram-5", p.Name())
	}
}
