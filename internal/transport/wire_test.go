package transport

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

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

// TestReportMsgKeepsZeroFields guards against omitempty creeping back
// onto the numeric report fields: a zero-mass result is data.
func TestReportMsgKeepsZeroFields(t *testing.T) {
	j, err := json.Marshal(&ReportMsg{Query: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"result", "tuples"} {
		if !strings.Contains(string(j), `"`+field+`"`) {
			t.Errorf("zero-valued %q dropped from wire: %s", field, j)
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
	writeJSON(&Envelope{Kind: KindHello, Hello: &Hello{From: "test"}})
	writeBatch(b1)
	writeJSON(&Envelope{Kind: KindSIC, SIC: &SICMsg{Query: 9, Value: 0.5}})
	writeBatch(b2)

	fr := newFrameReader(&buf)
	e, b, err := fr.next()
	if err != nil || e == nil || e.Kind != KindHello || b != nil {
		t.Fatalf("frame 1: %v %v %v", e, b, err)
	}
	e, b, err = fr.next()
	if err != nil || b == nil || e != nil {
		t.Fatalf("frame 2: %v %v %v", e, b, err)
	}
	batchesEqualBits(t, "frame2", b1, b)
	e, _, err = fr.next()
	if err != nil || e == nil || e.Kind != KindSIC || e.SIC.Value != 0.5 {
		t.Fatalf("frame 3: %+v %v", e, err)
	}
	_, b, err = fr.next()
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
	if _, b, err := fr.next(); err != nil || b.Len() != huge.Len() {
		t.Fatalf("oversized frame: %v %v", b, err)
	}
	if cap(fr.buf) <= maxWireScratch {
		t.Fatalf("oversized frame fit the scratch cap (%d bytes): test shape is wrong", cap(fr.buf))
	}
	_, b, err := fr.next()
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

// TestControllerToleratesOldReportShape: a host not yet upgraded still
// sends one accepted-SIC delta per hosted query per tick through the
// report frame ({"accepted":d,"result":0,"is_result":false}). Such a frame
// must be harmless to a controller that no longer reads those fields: it
// adds zero mass, it does not panic, and a report for an unknown query is
// still dropped rather than opening a ledger entry.
func TestControllerToleratesOldReportShape(t *testing.T) {
	addrs, _ := startNodes(t, 1, 1000)
	ctrl, err := NewController(ControllerConfig{Seed: 1}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	q, err := ctrl.Submit("Select Avg(t.v) From Src[Range 1 sec]", 1, 1, 20, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	feedHandle(t, ctrl, 0,
		`{"kind":"report","report":{"query":0,"accepted":0.5,"result":0,"tuples":0,"is_result":false}}`,
		`{"kind":"report","report":{"query":0,"accepted":-3,"result":0,"is_result":false}}`,
		`{"kind":"report","report":{"query":99,"accepted":0.5,"result":0,"is_result":false}}`,
		`{"kind":"report","report":{"query":99,"result":0.5,"tuples":4}}`,
		`{"kind":"report"}`,
		`{"kind":"report","report":{"query":0,"result":0.25,"tuples":4}}`,
	)
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	if got := ctrl.ledger.Measured(q, 0); got != 0.25 {
		t.Errorf("measured SIC %v after old-shape frames and one 0.25 result, want exactly 0.25", got)
	}
	if n := ctrl.ledger.NumLive(); n != 1 || ctrl.ledger.Live(99) {
		t.Errorf("%d live ledger entries, want only the submitted query", n)
	}
}

// feedHandle decodes JSON control frames and applies each, as Run
// applies what node idx's read loop decodes.
func feedHandle(t *testing.T, ctrl *Controller, idx int, frames ...string) {
	t.Helper()
	for _, frame := range frames {
		var e Envelope
		if err := json.Unmarshal([]byte(frame), &e); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.handle(event{node: idx, env: &e}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestControllerAppliesOnlyServedFrames: the controller applies a node's
// frame only if the node serves what the frame speaks for. Query 0 runs
// on node 0 of two; node 1 hosts nothing of it, so its report and its
// checkpoint are dropped, while the same frames from node 0 apply. A
// node's second stats frame is dropped too: counted toward the stop
// wait, it would end the wait before the other node's stats arrive.
func TestControllerAppliesOnlyServedFrames(t *testing.T) {
	const (
		report = `{"kind":"report","report":{"query":0,"result":0.25,"tuples":4}}`
		ckpt   = `{"kind":"checkpoint","checkpoint":{"query":0,"frag":0,"tick":1,"state":"AQID"}}`
		stats  = `{"kind":"stats","stats":{"node":"a","arrived_tuples":5}}`
		later  = `{"kind":"stats","stats":{"node":"a","arrived_tuples":7}}`
	)
	measured := func(c *Controller, q stream.QueryID) float64 { return c.ledger.Measured(q, 0) }
	banked := func(c *Controller, q stream.QueryID) float64 { return float64(len(c.plane.Checkpointed(q, 0))) }
	for _, row := range []struct {
		name   string
		from   int
		frames []string
		got    func(c *Controller, q stream.QueryID) float64
		want   float64
	}{
		{"report from a node not hosting the root", 1, []string{report}, measured, 0},
		{"report from the root's host", 0, []string{report}, measured, 0.25},
		{"checkpoint from a node not hosting the fragment", 1, []string{ckpt}, banked, 0},
		{"checkpoint from the fragment's host", 0, []string{ckpt}, banked, 3},
		{"second stats frame from one node", 0, []string{stats, later}, func(c *Controller, _ stream.QueryID) float64 {
			if c.stats[0] == nil || c.stats[1] != nil {
				return -1
			}
			return float64(c.stats[0].ArrivedTuples)
		}, 5},
	} {
		t.Run(row.name, func(t *testing.T) {
			addrs, _ := startNodes(t, 2, 1000)
			ctrl, err := NewController(ControllerConfig{Seed: 1}, addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.CloseAll()
			q, err := ctrl.Submit("Select Avg(t.v) From Src[Range 1 sec]", 1, 1, 20, 4, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			feedHandle(t, ctrl, row.from, row.frames...)
			ctrl.mu.Lock()
			defer ctrl.mu.Unlock()
			if got := row.got(ctrl, q); got != row.want {
				t.Errorf("got %v, want %v", got, row.want)
			}
		})
	}
}
