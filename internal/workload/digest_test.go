package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// streamOrderDigest is the SHA-256 of every (write, line) pair each warp
// of streamDigestSpecs draws, in issue order (see TestStreamOrderDigest).
// It was generated when each op's lines were still drawn all at once, into
// an 8-line array, when the warp stepped; drawing them where they issue
// must not move a single draw.
const streamOrderDigest = "5c4b45974d7fd91f2f368349afde5a1dddf66a829e3bbc71ad236fa81d2669e5"

// streamDigestSpecs returns the specs the stream-order digest covers: every
// application at scale 0.1, then synthetic kernels crossing every
// lines-per-op count with the irregular pattern, with and without a scatter
// region, and a coalesced stencil, write fractions 0, 0.5 and 1, and reuse
// 0 and 0.5. No application issues more than 2 lines per op, so only the
// synthetic kernels reach the diverged lanes past the second.
func streamDigestSpecs(t *testing.T) []*Spec {
	t.Helper()
	var out []*Spec
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s.Scaled(0.1))
	}
	shapes := []struct {
		pattern Pattern
		scatter uint64
	}{{PatIrregular, 0}, {PatIrregular, 512}, {PatStencil, 0}}
	for lpo := 1; lpo <= MaxLinesPerOp; lpo++ {
		for _, sh := range shapes {
			for _, wf := range []float64{0, 0.5, 1} {
				for _, reuse := range []float64{0, 0.5} {
					s := &Spec{
						Name:    fmt.Sprintf("synthetic-%s-%d-scatter%d-w%v-r%v", sh.pattern, lpo, sh.scatter, wf, reuse),
						Pattern: sh.pattern, CTAs: 16, WarpsPerCTA: 4, MemOpsPerWarp: 64, ComputePerMem: 1,
						KernelIters: 1, FootprintLines: 1 << 14, LinesPerOp: lpo, WriteFraction: wf, ReuseProb: reuse,
						SharedLines: 256, SharedFraction: 0.1, NeighborFraction: 0.2, RandomFraction: 0.3,
						ScatterLines: sh.scatter, WorkImbalance: 0.25, Seed: uint64(len(out)),
					}
					if err := s.Validate(); err != nil {
						t.Fatal(err)
					}
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// TestStreamOrderDigest hashes the name of every spec streamDigestSpecs
// returns and then, for each of its warps in (CTA, warp) order, each op's
// write flag and its lines in issue order, and requires the digest the
// streams had when it was generated. A change that reorders the draws of
// one warp, such as a lane drawn before the reuse roll or a line of an
// 8-line op drawn out of turn, changes it.
func TestStreamOrderDigest(t *testing.T) {
	h := sha256.New()
	buf := make([]byte, 0, 64<<10)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	for _, spec := range streamDigestSpecs(t) {
		buf = append(buf, spec.Name...)
		for cta := 0; cta < spec.CTAs; cta++ {
			for w := 0; w < spec.WarpsPerCTA; w++ {
				walkStream(spec, cta, w, func(write bool) {
					if len(buf) > cap(buf)-64 {
						flush()
					}
					if write {
						buf = append(buf, 1)
					} else {
						buf = append(buf, 0)
					}
				}, func(l uint64) {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
				})
			}
		}
	}
	flush()
	if got := hex.EncodeToString(h.Sum(nil)); got != streamOrderDigest {
		t.Fatalf("stream-order digest %s, want %s", got, streamOrderDigest)
	}
}
