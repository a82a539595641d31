package dag

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
)

// Content-addressed graph hashing. The schedule cache in internal/service
// keys finished schedules by "what the LP actually sees": the full DAG —
// vertices with their kinds, ranks, iteration marks and Pcontrol
// boundaries, and tasks with their endpoints, work, response shapes and
// message durations. Two byte-identical digests therefore denote graphs
// whose LPs are identical row for row (the event order derives from the
// initial schedule, which is a pure function of the graph and the machine
// model; the model is hashed separately into the cache key).
//
// The serialization is deliberately positional and exhaustive: every field
// of every vertex and task is written in ID order with fixed-width
// little-endian encoding, lengths prefix all variable-size data (labels,
// class names), and floats are hashed by IEEE-754 bit pattern so -0.0 vs
// 0.0 or NaN payload differences cannot alias. Nothing is derived or
// canonicalized beyond ID order, which the Graph representation already
// guarantees (Validate enforces dense, ordered IDs via the trace codec,
// and the builder allocates them sequentially).

// Digest returns the canonical SHA-256 of the graph's content. Graphs with
// equal digests produce identical fixed-vertex-order LPs under the same
// machine model and efficiency scales.
func Digest(g *Graph) [sha256.Size]byte {
	le := binary.LittleEndian
	// The buffer holds the whole serialization but its strings when that
	// fits in a chunk, so a small graph allocates no more than it writes.
	fixed := 3*8 + len(g.Vertices)*(vertexBytes+8) + len(g.Tasks)*(taskBytes+3*8)
	e := encoder{h: sha256.New(), buf: make([]byte, 0, min(fixed, encoderChunk))}
	b := e.room(2 * 8)
	b = le.AppendUint64(b, uint64(g.NumRanks))
	e.buf = le.AppendUint64(b, uint64(len(g.Vertices)))
	for i := range g.Vertices {
		v := &g.Vertices[i]
		b := e.room(vertexBytes)
		b = le.AppendUint64(b, uint64(v.ID))
		b = le.AppendUint64(b, uint64(v.Kind))
		b = le.AppendUint64(b, uint64(int64(v.Rank)))
		b = le.AppendUint64(b, uint64(int64(v.Iteration)))
		if v.IterBoundary {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		e.buf = b
		e.str(v.Label)
	}

	e.buf = le.AppendUint64(e.room(8), uint64(len(g.Tasks)))
	for i := range g.Tasks {
		t := &g.Tasks[i]
		b := e.room(taskBytes)
		b = le.AppendUint64(b, uint64(t.ID))
		b = le.AppendUint64(b, uint64(t.Kind))
		b = le.AppendUint64(b, uint64(int64(t.Rank)))
		b = le.AppendUint64(b, uint64(t.Src))
		b = le.AppendUint64(b, uint64(t.Dst))
		b = le.AppendUint64(b, uint64(int64(t.Iteration)))
		b = le.AppendUint64(b, math.Float64bits(t.Work))
		b = le.AppendUint64(b, math.Float64bits(t.Shape.SerialFrac))
		b = le.AppendUint64(b, math.Float64bits(t.Shape.MemFrac))
		b = le.AppendUint64(b, uint64(int64(t.Shape.MemSatThreads)))
		b = le.AppendUint64(b, math.Float64bits(t.Shape.ContentionCoef))
		e.buf = le.AppendUint64(b, math.Float64bits(t.Shape.Intensity))
		e.str(t.Class)
		b = e.room(2 * 8)
		b = le.AppendUint64(b, uint64(int64(t.Bytes)))
		e.buf = le.AppendUint64(b, math.Float64bits(t.FixedDur))
	}

	e.flush()
	var out [sha256.Size]byte
	e.h.Sum(out[:0])
	return out
}

// Fixed bytes of a vertex record before its label (four integers and the
// boundary flag) and of a task record before its class (twelve integers
// and floats).
const (
	vertexBytes = 4*8 + 1
	taskBytes   = 12 * 8
)

// encoderChunk is the largest buffer the serialization is written through:
// the hash takes it a chunk at a time, so a digest allocates at most a few
// kilobytes whatever the graph's size.
const encoderChunk = 4096

// encoder holds the serialization's pending bytes and hands them to the
// hash a chunk at a time.
type encoder struct {
	h   hash.Hash
	buf []byte
}

// room returns the buffer with at least n bytes free, flushed first when
// they would not fit. n is at most the fixed size of the record being
// written, which the buffer's capacity covers.
func (e *encoder) room(n int) []byte {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
	return e.buf
}

// str writes s behind its length, a chunk at a time when it is long.
func (e *encoder) str(s string) {
	e.buf = binary.LittleEndian.AppendUint64(e.room(8), uint64(len(s)))
	for len(s) > 0 {
		b := e.room(1)
		n := copy(b[len(b):cap(b)], s)
		e.buf = b[:len(b)+n]
		s = s[n:]
	}
}

func (e *encoder) flush() {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
}
