package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/stream"
)

// adversarialFloats are values that break naive float formatting:
// subnormals, extremes, negative zero, values needing all 17 digits.
var adversarialFloats = []float64{
	0, math.Copysign(0, -1), 1.0 / 3.0, 0.1, 1e-308, 5e-324, // subnormal
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	1.0000000000000002, 0.30000000000000004, 2.2250738585072014e-308,
}

func randomBatch(rng *rand.Rand, n, arity int) *stream.Batch {
	b := stream.NewBatch(stream.QueryID(rng.Int31()), stream.FragID(rng.Int31n(16)), -1,
		stream.Time(rng.Int63n(1<<40)), n, arity)
	b.Port = rng.Intn(32) - 1
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return adversarialFloats[rng.Intn(len(adversarialFloats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	for i := 0; i < n; i++ {
		b.Tuples[i].TS = stream.Time(rng.Int63n(1 << 40))
		b.Tuples[i].SIC = math.Abs(pick())
		for j := 0; j < arity; j++ {
			b.Tuples[i].V[j] = pick()
		}
	}
	b.RecomputeSIC()
	return b
}

func batchesEqualBits(t *testing.T, tag string, a, b *stream.Batch) {
	t.Helper()
	if a.Query != b.Query || a.Frag != b.Frag || a.Port != b.Port || a.TS != b.TS {
		t.Fatalf("%s: header mismatch: %+v vs %+v", tag, a, b)
	}
	if math.Float64bits(a.SIC) != math.Float64bits(b.SIC) {
		t.Fatalf("%s: header SIC %x vs %x", tag, math.Float64bits(a.SIC), math.Float64bits(b.SIC))
	}
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("%s: %d vs %d tuples", tag, len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		at, bt := &a.Tuples[i], &b.Tuples[i]
		if at.TS != bt.TS {
			t.Fatalf("%s: tuple %d TS %d vs %d", tag, i, at.TS, bt.TS)
		}
		if math.Float64bits(at.SIC) != math.Float64bits(bt.SIC) {
			t.Fatalf("%s: tuple %d SIC bits differ", tag, i)
		}
		if len(at.V) != len(bt.V) {
			t.Fatalf("%s: tuple %d arity %d vs %d", tag, i, len(at.V), len(bt.V))
		}
		for j := range at.V {
			if math.Float64bits(at.V[j]) != math.Float64bits(bt.V[j]) {
				t.Fatalf("%s: tuple %d val %d bits %x vs %x", tag, i, j,
					math.Float64bits(at.V[j]), math.Float64bits(bt.V[j]))
			}
		}
	}
}

// TestWireRoundTripProperty drives random batches — seeded with the
// float values that defeat naive formatters — through the binary frame
// encoding. Every float64 and every stream.Time must survive
// bit-exactly; zero values must not vanish.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		arity := rng.Intn(4)
		if n > 0 && arity == 0 && rng.Intn(2) == 0 {
			arity = 1
		}
		orig := randomBatch(rng, n, arity)

		p := appendWireBatch(nil, orig)
		got, err := decodeWireBatch(p, nil)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		batchesEqualBits(t, "binary", orig, got)
	}
}

// sendSIC writes one frameSIC frame of pairs on c, as a host's tick or
// the controller's flush would.
func sendSIC(c *conn, pairs ...SICMsg) error {
	return c.writeFrames(&net.Buffers{appendSICFrame(nil, pairs)}, time.Now().Add(c.wt))
}

// sicBits renders pairs with their values as raw bits, so NaN payloads
// and the sign of zero compare exactly.
func sicBits(pairs []SICMsg) [][2]uint64 {
	out := make([][2]uint64, len(pairs))
	for i, m := range pairs {
		out[i] = [2]uint64{uint64(uint32(m.Query)), math.Float64bits(m.Value)}
	}
	return out
}

// readSIC reads one frame of wire and requires it to be a SIC frame.
func readSIC(t *testing.T, fr *frameReader) []SICMsg {
	t.Helper()
	e, b, pairs, err := fr.next()
	if err != nil || e != nil || b != nil || pairs == nil {
		t.Fatalf("want a SIC frame, got envelope %v batch %v pairs %v err %v", e, b, pairs, err)
	}
	return pairs
}

// sicFloats are the values a SIC frame must carry bit-exactly beyond
// adversarialFloats: quiet and signalling NaNs with payloads, ±Inf.
var sicFloats = append([]float64{
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000123),
	math.NaN(), math.Inf(1), math.Inf(-1),
}, adversarialFloats...)

// TestReportMsgKeepsZeroFields: a zero-valued result is data. A tick
// frame carries query 0 with value 0 and −0 through the frame reader
// unchanged, and a tick frame with no pairs still reads as a frame — it
// is the host's heartbeat.
func TestReportMsgKeepsZeroFields(t *testing.T) {
	for _, pairs := range [][]SICMsg{{{}, {Value: math.Copysign(0, -1)}}, nil} {
		got := readSIC(t, newFrameReader(bytes.NewReader(appendSICFrame(nil, pairs))))
		if !slices.Equal(sicBits(got), sicBits(pairs)) {
			t.Fatalf("pairs %v came back as %v", pairs, got)
		}
	}
}

// TestSICFrameRoundTripProperty sends random pairs — any query id, values
// drawn from sicFloats or at random — through the frame reader: every
// pair comes back bit-exactly, in order, and the decoded slice does not
// alias the reader's buffer.
func TestSICFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var wire []byte
	var sent [][]SICMsg
	for trial := 0; trial < 200; trial++ {
		pairs := make([]SICMsg, rng.Intn(40))
		for i := range pairs {
			pairs[i].Query = stream.QueryID(rng.Uint32())
			if rng.Intn(2) == 0 {
				pairs[i].Value = sicFloats[rng.Intn(len(sicFloats))]
			} else {
				pairs[i].Value = math.Float64frombits(rng.Uint64())
			}
		}
		wire = appendSICFrame(wire, pairs)
		sent = append(sent, pairs)
	}
	fr := newFrameReader(bytes.NewReader(wire))
	var got [][]SICMsg
	for range sent {
		got = append(got, readSIC(t, fr))
	}
	for i := range sent {
		if !slices.Equal(sicBits(got[i]), sicBits(sent[i])) {
			t.Fatalf("frame %d: sent %v, read %v", i, sent[i], got[i])
		}
	}
}

func TestDecodeWireBatchRejectsCorrupt(t *testing.T) {
	orig := randomBatch(rand.New(rand.NewSource(1)), 4, 2)
	p := appendWireBatch(nil, orig)
	if _, err := decodeWireBatch(p[:10], nil); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := decodeWireBatch(p[:len(p)-3], nil); err == nil {
		t.Error("truncated payload accepted")
	}
	for _, c := range corruptSICPayloads() {
		if pairs, err := decodeSICFrame(c.p); err == nil {
			t.Errorf("SIC frame with %s accepted: %v", c.name, pairs)
		}
	}
}

// corruptSICPayloads are frameSIC payloads the decoder must refuse.
func corruptSICPayloads() []struct {
	name string
	p    []byte
} {
	whole := appendSICFrame(nil, []SICMsg{{1, 0.5}, {2, 0.25}})[frameHeaderLen:]
	withCount := func(n uint32, size int) []byte {
		p := make([]byte, size)
		binary.LittleEndian.PutUint32(p, n)
		return p
	}
	return []struct {
		name string
		p    []byte
	}{
		{"no count", whole[:3]},
		{"truncated payload", whole[:len(whole)-1]},
		{"trailing byte", append(append([]byte(nil), whole...), 0)},
		{"count above its pairs", withCount(3, len(whole))},
		{"count below its pairs", withCount(1, len(whole))},
		// 4 + 12·0x40000001 wraps to 16 in u32 arithmetic: only a check
		// that cannot overflow refuses it.
		{"count whose length overflows u32", withCount(0x40000001, 16)},
		{"count of 2^32-1", withCount(math.MaxUint32, 16)},
	}
}

// TestFrameReaderMixedStream interleaves JSON control frames and binary
// batch frames on one byte stream, as a real connection does.
func TestFrameReaderMixedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b1 := randomBatch(rng, 8, 2)
	b2 := randomBatch(rng, 0, 0)

	var buf bytes.Buffer
	writeJSON := func(e *Envelope) {
		p, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [frameHeaderLen]byte
		hdr[0] = frameJSON
		hdr[1], hdr[2], hdr[3], hdr[4] = byte(len(p)>>24), byte(len(p)>>16), byte(len(p)>>8), byte(len(p))
		buf.Write(hdr[:])
		buf.Write(p)
	}
	writeBatch := func(b *stream.Batch) {
		p := appendWireBatch(nil, b)
		var hdr [frameHeaderLen]byte
		hdr[0] = frameBatch
		hdr[1], hdr[2], hdr[3], hdr[4] = byte(len(p)>>24), byte(len(p)>>16), byte(len(p)>>8), byte(len(p))
		buf.Write(hdr[:])
		buf.Write(p)
	}
	writeJSON(&Envelope{Kind: KindHello, Hello: testRun})
	writeBatch(b1)
	buf.Write(appendSICFrame(nil, []SICMsg{{Query: 9, Value: 0.5}}))
	writeBatch(b2)

	fr := newFrameReader(&buf)
	e, b, pairs, err := fr.next()
	if err != nil || e == nil || e.Kind != KindHello || b != nil || pairs != nil {
		t.Fatalf("frame 1: %v %v %v %v", e, b, pairs, err)
	}
	e, b, pairs, err = fr.next()
	if err != nil || b == nil || e != nil || pairs != nil {
		t.Fatalf("frame 2: %v %v %v %v", e, b, pairs, err)
	}
	batchesEqualBits(t, "frame2", b1, b)
	if pairs := readSIC(t, fr); !slices.Equal(pairs, []SICMsg{{Query: 9, Value: 0.5}}) {
		t.Fatalf("frame 3: %+v", pairs)
	}
	_, b, _, err = fr.next()
	if err != nil || b == nil || b.Len() != 0 {
		t.Fatalf("frame 4: %v %v", b, err)
	}
}

// TestFrameReaderScratchShrinks: one pathological frame must not pin its
// high-water mark on the reader's payload buffer — the next ordinary
// frame drops the scratch back under maxWireScratch.
func TestFrameReaderScratchShrinks(t *testing.T) {
	huge := randomBatch(rand.New(rand.NewSource(5)), maxWireScratch/8, 1) // payload well past the cap
	small := randomBatch(rand.New(rand.NewSource(6)), 4, 1)
	wire := appendBatchFrame(appendBatchFrame(nil, huge), small)
	fr := newFrameReader(bytes.NewReader(wire))
	if _, b, _, err := fr.next(); err != nil || b.Len() != huge.Len() {
		t.Fatalf("oversized frame: %v %v", b, err)
	}
	if cap(fr.buf) <= maxWireScratch {
		t.Fatalf("oversized frame fit the scratch cap (%d bytes): test shape is wrong", cap(fr.buf))
	}
	_, b, _, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	batchesEqualBits(t, "after-shrink", small, b)
	if cap(fr.buf) > maxWireScratch {
		t.Fatalf("reader scratch retains %d bytes after an oversized frame, cap is %d", cap(fr.buf), maxWireScratch)
	}
}

// BenchmarkWireBatch measures encode+decode cost of the binary batch
// codec, plain and pooled, on a representative 64-tuple, arity-2 batch
// (the §7 evaluation ships batches of tens of tuples several times a
// second per source).
func BenchmarkWireBatch(b *testing.B) {
	batch := randomBatch(rand.New(rand.NewSource(3)), 64, 2)

	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var total int64
		for i := 0; i < b.N; i++ {
			buf = appendWireBatch(buf[:0], batch)
			total += int64(len(buf))
			got, err := decodeWireBatch(buf, nil)
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != batch.Len() {
				b.Fatal("length mismatch")
			}
		}
		b.ReportMetric(float64(total)/float64(b.N), "wire-bytes/op")
	})
	// The production inbound path: reused encode buffer, pooled decode,
	// release after the (simulated) tick. Steady state allocates nothing.
	b.Run("binary-pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := stream.NewPool()
		var buf []byte
		var total int64
		for i := 0; i < b.N; i++ {
			buf = appendWireBatch(buf[:0], batch)
			total += int64(len(buf))
			got, err := decodeWireBatch(buf, pool)
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != batch.Len() {
				b.Fatal("length mismatch")
			}
			got.Release()
		}
		b.ReportMetric(float64(total)/float64(b.N), "wire-bytes/op")
	})
}

// feedHandle decodes raw frames — a type byte, then the payload — and
// applies each to a controller before Run, as the run loop applies what
// node idx's read loop decodes.
func feedHandle(t *testing.T, ctrl *Controller, idx int, frames ...[]byte) {
	t.Helper()
	for _, frame := range frames {
		e, _, pairs, err := readRaw(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.handle(time.Now(), event{node: idx, env: e, sic: pairs}); err != nil {
			t.Fatal(err)
		}
	}
}

// readRaw reads a raw frame — a type byte, then the payload, the form
// feedHandle and the frame fuzzers take — through a frame reader.
func readRaw(raw []byte) (*Envelope, *stream.Batch, []SICMsg, error) {
	return newFrameReader(bytes.NewReader(appendFrame(nil, raw[0], raw[1:]))).next()
}

// rawJSON and rawSIC render a JSON frame and a SIC frame raw.
func rawJSON(payload string) []byte { return append([]byte{frameJSON}, payload...) }
func rawSIC(pairs ...SICMsg) []byte {
	f := appendSICFrame(nil, pairs)
	return append([]byte{frameSIC}, f[frameHeaderLen:]...)
}

// TestControllerAppliesOnlyServedFrames: the controller applies a node's
// frame only if the node serves what the frame speaks for. Query 0 runs
// on node 0 of two; node 1 hosts nothing of it, so its result and its
// checkpoint are dropped, while the same frames from node 0 apply. Mass
// no result can carry is dropped pair by pair, the rest of its frame
// applies. A node's second stats frame is dropped too: counted toward
// the stop wait, it would end the wait before the other node's stats
// arrive.
func TestControllerAppliesOnlyServedFrames(t *testing.T) {
	var (
		report = rawSIC(SICMsg{Query: 0, Value: 0.25})
		ckpt   = rawJSON(`{"kind":"checkpoint","checkpoint":{"query":0,"frag":0,"state":"AQID"}}`)
		stats  = rawJSON(`{"kind":"stats","stats":{"node":"a","arrived_tuples":5}}`)
		later  = rawJSON(`{"kind":"stats","stats":{"node":"a","arrived_tuples":7}}`)
	)
	measured := func(c *Controller, q stream.QueryID) float64 { return c.ledger.Measured(q, 0) }
	banked := func(c *Controller, q stream.QueryID) float64 { return float64(len(c.plane.Checkpointed(q, 0))) }
	for _, row := range []struct {
		name   string
		from   int
		frames [][]byte
		got    func(c *Controller, q stream.QueryID) float64
		want   float64
	}{
		{"report from a node not hosting the root", 1, [][]byte{report}, measured, 0},
		{"report from the root's host", 0, [][]byte{report}, measured, 0.25},
		{"negative and payload-less reports add no mass", 0, [][]byte{
			rawSIC(SICMsg{Query: 0, Value: -3}, SICMsg{Query: 0, Value: math.NaN()}, SICMsg{Query: 0, Value: math.Inf(1)}),
			rawSIC(),
			rawSIC(SICMsg{Query: 0, Value: 2 * coordinator.MaxResultMass}, SICMsg{Query: 0, Value: 0.25}),
		}, measured, 0.25},
		{"checkpoint from a node not hosting the fragment", 1, [][]byte{ckpt}, banked, 0},
		{"checkpoint from the fragment's host", 0, [][]byte{ckpt}, banked, 3},
		{"second stats frame from one node", 0, [][]byte{stats, later}, func(c *Controller, _ stream.QueryID) float64 {
			if c.stats[0] == nil || c.stats[1] != nil {
				return -1
			}
			return float64(c.stats[0].ArrivedTuples)
		}, 5},
	} {
		t.Run(row.name, func(t *testing.T) {
			addrs, _ := startNodes(t, 2, 1000)
			ctrl := testController(t, ControllerConfig{Seed: 1}, addrs)
			q, err := ctrl.Submit("Select Avg(t.v) From Src[Range 1 sec]", 1, 1, 20, 4, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			feedHandle(t, ctrl, row.from, row.frames...)
			if got := row.got(ctrl, q); got != row.want {
				t.Errorf("got %v, want %v", got, row.want)
			}
		})
	}
}

// BenchmarkTickFrame measures encode+decode of one tick frame of 36
// pairs — about what one net_overload_24x48 host or the controller sends
// a host per tick — through the frame reader. The encode reuses its
// buffer; the decode allocates the one slice the event carries.
func BenchmarkTickFrame(b *testing.B) {
	pairs := make([]SICMsg, 36)
	for i := range pairs {
		pairs[i] = SICMsg{Query: stream.QueryID(i), Value: 1 / float64(i+1)}
	}
	b.ReportAllocs()
	var buf []byte
	var rd bytes.Reader
	fr := newFrameReader(&rd)
	for i := 0; i < b.N; i++ {
		buf = appendSICFrame(buf[:0], pairs)
		rd.Reset(buf)
		fr.r.Reset(&rd)
		if _, _, got, err := fr.next(); err != nil || len(got) != len(pairs) {
			b.Fatalf("decoded %d pairs: %v", len(got), err)
		}
	}
	b.ReportMetric(float64(len(buf)), "wire-bytes/op")
}
