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
// What crosses the wire every tick is binary, and round-trips float64
// values bit-exactly with no reflection or number formatting: tuple
// batches between fragment hosts (frameBatch), and one frame of
// (query, result SIC) pairs per node per tick (frameSIC) — a host's
// results, which is also its heartbeat, and the controller's updates to
// that host. Every other control message is a JSON envelope (frameJSON).
const (
	frameJSON  byte = 0x00
	frameBatch byte = 0x01
	frameSIC   byte = 0x02

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

// appendSICFrame appends a complete frameSIC frame for pairs to dst; its
// payload is the pair count, then each query (u32) and value (f64 bits).
func appendSICFrame(dst []byte, pairs []SICMsg) []byte {
	dst = binary.BigEndian.AppendUint32(append(dst, frameSIC), uint32(4+12*len(pairs)))
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(pairs)))
	for _, m := range pairs {
		dst = le.AppendUint64(le.AppendUint32(dst, uint32(m.Query)), math.Float64bits(m.Value))
	}
	return dst
}

// decodeSICFrame decodes a frameSIC payload into a fresh slice — one
// allocation, none for no pairs — once the payload is exactly as long as
// its count says. The slice is never nil: an event carrying it tells a
// frame with no pairs from no frame.
func decodeSICFrame(p []byte) ([]SICMsg, error) {
	le := binary.LittleEndian
	if len(p) < 4 || uint64(len(p)) != 4+12*uint64(le.Uint32(p)) {
		return nil, fmt.Errorf("transport: SIC frame of %d bytes does not match its count", len(p))
	}
	pairs := make([]SICMsg, le.Uint32(p))
	for i := range pairs {
		q := p[4+12*i:]
		pairs[i] = SICMsg{Query: stream.QueryID(int32(le.Uint32(q))), Value: math.Float64frombits(le.Uint64(q[4:]))}
	}
	return pairs, nil
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

// next reads one frame: a non-nil envelope, batch or pairs, by type. The
// batch owns its storage and the rest is fresh: none aliases fr.buf.
func (fr *frameReader) next() (*Envelope, *stream.Batch, []SICMsg, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, nil, nil, err
	}
	size := binary.BigEndian.Uint32(fr.hdr[1:])
	if size > maxFramePayload {
		return nil, nil, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
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
		return nil, nil, nil, err
	}
	switch fr.hdr[0] {
	case frameJSON:
		var e Envelope
		if err := json.Unmarshal(p, &e); err != nil {
			return nil, nil, nil, fmt.Errorf("transport: control frame: %w", err)
		}
		return &e, nil, nil, nil
	case frameBatch:
		b, err := decodeWireBatch(p, fr.pool)
		return nil, b, nil, err
	case frameSIC:
		pairs, err := decodeSICFrame(p)
		return nil, nil, pairs, err
	default:
		return nil, nil, nil, fmt.Errorf("transport: unknown frame type 0x%02x", fr.hdr[0])
	}
}
