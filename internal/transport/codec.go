package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/stream"
)

// Wire framing. Every message on a transport connection is one frame:
//
//	[1 byte frame type][4 bytes big-endian payload length][payload]
//
// Control messages travel as JSON envelopes (frameJSON), and not rarely:
// every tick each host sends a report per result and a heartbeat, and the
// controller a SIC update per query per host. Tuple batches, which cross
// fragment hosts several times per second per query, use a fixed-layout
// binary encoding (frameBatch) that round-trips float64 payloads
// bit-exactly and costs no reflection or number formatting.
const (
	frameJSON  byte = 0x00
	frameBatch byte = 0x01

	frameHeaderLen = 5
	// maxFramePayload bounds a single frame so a corrupted or hostile
	// length prefix cannot trigger an arbitrary allocation.
	maxFramePayload = 64 << 20
)

// batchWireHeaderLen is the fixed prefix of a frameBatch payload:
// query(4) frag(4) port(4) ts(8) sic(8) arity(4) n(4).
const batchWireHeaderLen = 36

// appendWireBatch appends the binary encoding of b to dst and returns the
// extended slice. Layout (little-endian): the fixed header above, then n
// tuple timestamps (int64), n tuple SIC values (float64 bits), and
// n×arity payload values (float64 bits), column-wise.
func appendWireBatch(dst []byte, b *stream.Batch) []byte {
	arity := 0
	if len(b.Tuples) > 0 {
		arity = len(b.Tuples[0].V)
	}
	n := len(b.Tuples)
	need := batchWireHeaderLen + 8*n*(2+arity)
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(b.Query))
	dst = le.AppendUint32(dst, uint32(b.Frag))
	dst = le.AppendUint32(dst, uint32(int32(b.Port)))
	dst = le.AppendUint64(dst, uint64(b.TS))
	dst = le.AppendUint64(dst, math.Float64bits(b.SIC))
	dst = le.AppendUint32(dst, uint32(arity))
	dst = le.AppendUint32(dst, uint32(n))
	for i := range b.Tuples {
		dst = le.AppendUint64(dst, uint64(b.Tuples[i].TS))
	}
	for i := range b.Tuples {
		dst = le.AppendUint64(dst, math.Float64bits(b.Tuples[i].SIC))
	}
	for i := range b.Tuples {
		for _, v := range b.Tuples[i].V {
			dst = le.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// decodeWireBatch decodes a frameBatch payload into a derived batch
// (Source -1), validating lengths before touching the data. The batch is
// drawn from pool when non-nil — the receiving node releases it after
// the tick that consumes it — and plainly allocated otherwise.
func decodeWireBatch(p []byte, pool *stream.Pool) (*stream.Batch, error) {
	if len(p) < batchWireHeaderLen {
		return nil, fmt.Errorf("transport: batch frame too short (%d bytes)", len(p))
	}
	le := binary.LittleEndian
	query := stream.QueryID(int32(le.Uint32(p[0:])))
	frag := stream.FragID(int32(le.Uint32(p[4:])))
	port := int(int32(le.Uint32(p[8:])))
	ts := stream.Time(int64(le.Uint64(p[12:])))
	sicBits := le.Uint64(p[20:])
	arity := int(le.Uint32(p[28:]))
	n := int(le.Uint32(p[32:]))
	if n < 0 || arity < 0 || n > maxFramePayload/8 || arity > maxFramePayload/8 {
		return nil, fmt.Errorf("transport: implausible batch dimensions n=%d arity=%d", n, arity)
	}
	want := batchWireHeaderLen + 8*n*(2+arity)
	if len(p) != want {
		return nil, fmt.Errorf("transport: batch frame is %d bytes, want %d (n=%d arity=%d)", len(p), want, n, arity)
	}
	var b *stream.Batch
	if pool != nil {
		b = pool.Get(query, frag, -1, ts, n, arity)
	} else {
		b = stream.NewBatch(query, frag, -1, ts, n, arity)
	}
	b.Port = port
	b.SIC = math.Float64frombits(sicBits)
	off := batchWireHeaderLen
	for i := 0; i < n; i++ {
		b.Tuples[i].TS = stream.Time(int64(le.Uint64(p[off:])))
		off += 8
	}
	for i := 0; i < n; i++ {
		b.Tuples[i].SIC = math.Float64frombits(le.Uint64(p[off:]))
		off += 8
	}
	for i := 0; i < n; i++ {
		for j := 0; j < arity; j++ {
			b.Tuples[i].V[j] = math.Float64frombits(le.Uint64(p[off:]))
			off += 8
		}
	}
	return b, nil
}

// frameReader reads frames off a connection, reusing one payload buffer
// and decoding batch frames into pooled batches when given a pool. The
// header scratch lives on the reader, not the stack: a stack array's
// slice would escape through io.ReadFull's interface call and cost one
// heap allocation per frame.
type frameReader struct {
	r    *bufio.Reader
	buf  []byte
	hdr  [frameHeaderLen]byte
	pool *stream.Pool
}

func newFrameReader(c io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(c)}
}

// newPooledFrameReader reads frames like newFrameReader but decodes
// batch frames into batches drawn from pool — the steady-state inbound
// hot path allocates nothing.
func newPooledFrameReader(c io.Reader, pool *stream.Pool) *frameReader {
	return &frameReader{r: bufio.NewReader(c), pool: pool}
}

// next reads one frame. Control frames return a non-nil envelope; batch
// frames return a non-nil batch. The batch owns its storage; the envelope
// is freshly unmarshalled — neither aliases the reader's buffer.
func (fr *frameReader) next() (*Envelope, *stream.Batch, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, nil, err
	}
	size := binary.BigEndian.Uint32(fr.hdr[1:])
	if size > maxFramePayload {
		return nil, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	if cap(fr.buf) > maxWireScratch && int(size) <= maxWireScratch {
		// One pathological frame must not pin its high-water mark on
		// this reader forever (bufPool.put is the write-side mirror).
		fr.buf = nil
	}
	if cap(fr.buf) < int(size) {
		fr.buf = make([]byte, size)
	}
	p := fr.buf[:size]
	if _, err := io.ReadFull(fr.r, p); err != nil {
		return nil, nil, err
	}
	switch fr.hdr[0] {
	case frameJSON:
		var e Envelope
		if err := json.Unmarshal(p, &e); err != nil {
			return nil, nil, fmt.Errorf("transport: control frame: %w", err)
		}
		return &e, nil, nil
	case frameBatch:
		b, err := decodeWireBatch(p, fr.pool)
		return nil, b, err
	default:
		return nil, nil, fmt.Errorf("transport: unknown frame type 0x%02x", fr.hdr[0])
	}
}
