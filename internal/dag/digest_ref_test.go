package dag

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
)

// StreamDigest is the streaming encoder Digest replaced: the same byte
// stream, written into the hash one field at a time. Digest must match it
// byte for byte on every graph (digest_match_test.go), so a change to the
// one-pass encoder cannot move a schedule key or a golden. It is exported
// for the external test package, which builds graphs with the generators
// and the trace codec (both import dag).
func StreamDigest(g *Graph) [sha256.Size]byte {
	h := sha256.New()
	hashU64(h, uint64(g.NumRanks))

	hashU64(h, uint64(len(g.Vertices)))
	for _, v := range g.Vertices {
		hashU64(h, uint64(v.ID))
		hashU64(h, uint64(v.Kind))
		hashI64(h, int64(v.Rank))
		hashI64(h, int64(v.Iteration))
		hashBool(h, v.IterBoundary)
		hashString(h, v.Label)
	}

	hashU64(h, uint64(len(g.Tasks)))
	for _, t := range g.Tasks {
		hashU64(h, uint64(t.ID))
		hashU64(h, uint64(t.Kind))
		hashI64(h, int64(t.Rank))
		hashU64(h, uint64(t.Src))
		hashU64(h, uint64(t.Dst))
		hashI64(h, int64(t.Iteration))
		hashF64(h, t.Work)
		hashF64(h, t.Shape.SerialFrac)
		hashF64(h, t.Shape.MemFrac)
		hashI64(h, int64(t.Shape.MemSatThreads))
		hashF64(h, t.Shape.ContentionCoef)
		hashF64(h, t.Shape.Intensity)
		hashString(h, t.Class)
		hashI64(h, int64(t.Bytes))
		hashF64(h, t.FixedDur)
	}

	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashI64(h hash.Hash, v int64) { hashU64(h, uint64(v)) }

func hashF64(h hash.Hash, v float64) { hashU64(h, math.Float64bits(v)) }

func hashBool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

func hashString(h hash.Hash, s string) {
	hashU64(h, uint64(len(s)))
	h.Write([]byte(s))
}
