package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// State-snapshot codec (PR 8). Operator, window and accumulator state is
// serialized through a SnapEncoder and read back through a SnapDecoder so
// a re-placed fragment resumes from a warm window instead of refilling it
// over a full STW. The format is deliberately minimal: a leading version
// byte, fixed-width little-endian primitives, and a trailing FNV-1a 64
// checksum appended by Seal and verified by Init. Counts are validated
// against the bytes actually present before any storage is sized from
// them, so a corrupt or hostile snapshot errors instead of panicking or
// allocating unbounded memory (FuzzStateCodec).
//
// The encoder is reusable: Reset truncates in place, so a checkpoint tick
// on a warmed engine performs no allocations once buffer capacities have
// stabilised (the steady-state zero-alloc budget includes checkpointing).

// SnapVersion is the snapshot codec version. Init rejects snapshots from
// a different version: state layout is not wire-compatible across
// versions, and a version bump is the upgrade story (DESIGN.md §12).
const SnapVersion = 3

// snapTrailerLen is the length of the checksum trailer Seal appends.
const snapTrailerLen = 8

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnv1a64 is the inline FNV-1a 64 used for snapshot checksums. Hand-rolled
// so sealing does not construct a hash.Hash on the checkpoint tick.
func fnv1a64(p []byte) uint64 {
	h := fnvOffset64
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

var (
	// ErrSnapTruncated reports a snapshot shorter than its own framing.
	ErrSnapTruncated = errors.New("stream: snapshot truncated")
	// ErrSnapChecksum reports a checksum mismatch: the snapshot bytes were
	// corrupted between Seal and Init.
	ErrSnapChecksum = errors.New("stream: snapshot checksum mismatch")
	// ErrSnapCorrupt reports a structurally invalid snapshot: a count or
	// length field inconsistent with the bytes present.
	ErrSnapCorrupt = errors.New("stream: snapshot corrupt")
)

// SnapEncoder serializes snapshot state into a reusable buffer.
type SnapEncoder struct {
	buf []byte
}

// Reset truncates the buffer and writes the version byte. Every snapshot
// starts with Reset and ends with Seal.
func (e *SnapEncoder) Reset() {
	e.buf = e.buf[:0]
	e.buf = append(e.buf, SnapVersion)
}

// Len reports the bytes written so far (including the version byte).
func (e *SnapEncoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *SnapEncoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *SnapEncoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// U32 appends a fixed-width little-endian uint32.
func (e *SnapEncoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a fixed-width little-endian uint64.
func (e *SnapEncoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends an int64.
func (e *SnapEncoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *SnapEncoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *SnapEncoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// BeginBlob reserves a 4-byte length prefix for a nested blob and returns
// a mark to pass to EndBlob once the blob's content has been written.
// Nested blobs let a reader verify that each operator consumed exactly
// its own bytes.
func (e *SnapEncoder) BeginBlob() int {
	e.U32(0)
	return len(e.buf)
}

// EndBlob patches the length prefix reserved by BeginBlob.
func (e *SnapEncoder) EndBlob(mark int) {
	binary.LittleEndian.PutUint32(e.buf[mark-4:mark], uint32(len(e.buf)-mark))
}

// TupleSlice appends a tuple slice with deep payload copies: a count, the
// total payload width (so the decoder can pre-size its arena exactly),
// then TS/SIC/len(V)/V per tuple.
func (e *SnapEncoder) TupleSlice(ts []Tuple) {
	total := 0
	for i := range ts {
		total += len(ts[i].V)
	}
	e.U32(uint32(len(ts)))
	e.U32(uint32(total))
	for i := range ts {
		e.I64(int64(ts[i].TS))
		e.F64(ts[i].SIC)
		e.U32(uint32(len(ts[i].V)))
		for _, v := range ts[i].V {
			e.F64(v)
		}
	}
}

// Seal appends the FNV-1a 64 checksum over everything written since Reset
// and returns the complete snapshot. The returned slice aliases the
// encoder's buffer: callers that retain it across the next Reset must
// copy it out (the federation checkpoint tick appends it into a
// per-fragment record buffer for exactly this reason).
func (e *SnapEncoder) Seal() []byte {
	sum := fnv1a64(e.buf)
	e.U64(sum)
	return e.buf
}

// SnapDecoder reads a sealed snapshot with a sticky error: the first
// malformed read poisons every subsequent read, so decode loops need only
// check Err at their boundaries. All reads are bounds-checked against the
// actual payload.
type SnapDecoder struct {
	data []byte // payload between version byte and checksum trailer
	off  int
	err  error
}

// Init verifies the snapshot framing — minimum length, version byte,
// trailing checksum — and positions the decoder after the version byte.
func (d *SnapDecoder) Init(data []byte) error {
	d.data, d.off, d.err = nil, 0, nil
	if len(data) < 1+snapTrailerLen {
		d.err = ErrSnapTruncated
		return d.err
	}
	body := data[:len(data)-snapTrailerLen]
	want := binary.LittleEndian.Uint64(data[len(body):])
	if fnv1a64(body) != want {
		d.err = ErrSnapChecksum
		return d.err
	}
	if body[0] != SnapVersion {
		d.err = fmt.Errorf("stream: snapshot version %d, decoder supports %d", body[0], SnapVersion)
		return d.err
	}
	d.data, d.off = body, 1
	return nil
}

// Err returns the sticky decode error, if any.
func (d *SnapDecoder) Err() error { return d.err }

// Remaining reports the unread payload bytes.
func (d *SnapDecoder) Remaining() int { return len(d.data) - d.off }

// Offset reports the current read position; paired with a blob length it
// verifies exact per-operator consumption.
func (d *SnapDecoder) Offset() int { return d.off }

func (d *SnapDecoder) fail() {
	if d.err == nil {
		d.err = ErrSnapCorrupt
	}
	d.off = len(d.data)
}

// U8 reads one byte.
func (d *SnapDecoder) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.data) {
		d.fail()
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

// Bool reads a bool. Any non-zero byte is true.
func (d *SnapDecoder) Bool() bool { return d.U8() != 0 }

// U32 reads a uint32.
func (d *SnapDecoder) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.data) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

// U64 reads a uint64.
func (d *SnapDecoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.data) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// I64 reads an int64.
func (d *SnapDecoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *SnapDecoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string. The length is validated against the
// remaining payload before the string is materialised.
func (d *SnapDecoder) Str() string {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > d.Remaining() {
		d.fail()
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

// Count reads a count field and validates it against the remaining bytes
// assuming each element occupies at least minBytesPer bytes. This is the
// guard that keeps hostile snapshots from sizing allocations: storage for
// count elements is only ever reserved after Count accepts it.
func (d *SnapDecoder) Count(minBytesPer int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || (minBytesPer > 0 && n > d.Remaining()/minBytesPer) {
		d.fail()
		return 0
	}
	return n
}

// TupleSlice reads a tuple slice encoded by SnapEncoder.TupleSlice,
// appending tuples to buf and payloads to vals, and returns the grown
// arenas. The decoded tuples' V slices alias the returned vals arena,
// which is pre-sized from the validated total so it never relocates
// mid-decode. On error the arenas are returned as-is with the decoder
// error set.
func (d *SnapDecoder) TupleSlice(buf []Tuple, vals []float64) ([]Tuple, []float64) {
	// Each tuple occupies at least TS + SIC + vlen = 20 bytes; each
	// payload value 8 bytes.
	n := d.Count(20)
	total := d.Count(8)
	if d.err != nil {
		return buf, vals
	}
	if cap(vals)-len(vals) < total {
		grown := make([]float64, len(vals), len(vals)+total)
		copy(grown, vals)
		vals = grown
	}
	if cap(buf)-len(buf) < n {
		grown := make([]Tuple, len(buf), len(buf)+n)
		copy(grown, buf)
		buf = grown
	}
	base := len(vals)
	for i := 0; i < n; i++ {
		ts := d.I64()
		sic := d.F64()
		vlen := int(d.U32())
		if d.err != nil {
			return buf, vals
		}
		if vlen < 0 || vlen > total-(len(vals)-base) {
			d.fail()
			return buf, vals
		}
		off := len(vals)
		for j := 0; j < vlen; j++ {
			vals = append(vals, d.F64())
		}
		if d.err != nil {
			return buf, vals
		}
		t := Tuple{TS: Time(ts), SIC: sic}
		if vlen > 0 {
			t.V = vals[off : off+vlen : off+vlen]
		}
		buf = append(buf, t)
	}
	return buf, vals
}
