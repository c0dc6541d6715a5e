package node

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// recorder is a test operator that notes the backing array of every push
// (&in[0]) and holds each pushed slice, with a copy of its contents, until
// its Tick, where it counts the slices whose contents changed meanwhile.
type recorder struct {
	arrays  []*stream.Tuple
	held    [][]stream.Tuple
	copies  [][]stream.Tuple
	changed int
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) InPorts() int { return 1 }

func (r *recorder) Push(_ int, in []stream.Tuple) {
	r.arrays = append(r.arrays, &in[0])
	r.held = append(r.held, in)
	cp := make([]stream.Tuple, len(in))
	for i, t := range in {
		t.V = append([]float64(nil), t.V...)
		cp[i] = t
	}
	r.copies = append(r.copies, cp)
}

func (r *recorder) Tick(stream.Time, func([]stream.Tuple)) {
	for k, in := range r.held {
		for i, t := range in {
			c := r.copies[k][i]
			if t.TS != c.TS || math.Float64bits(t.SIC) != math.Float64bits(c.SIC) ||
				math.Float64bits(t.V[0]) != math.Float64bits(c.V[0]) {
				r.changed++
				break
			}
		}
	}
	r.held, r.copies = r.held[:0], r.copies[:0]
}

// eater is a recorder that declares it consumes on push, so a batch pushed
// to it may be recycled as soon as Push returns. It only records the
// backing arrays: what it held would rightly change.
type eater struct{ recorder }

func (e *eater) ConsumesOnPush() {}

func (e *eater) Tick(stream.Time, func([]stream.Tuple)) {
	e.held, e.copies = e.held[:0], e.copies[:0]
}

// recycleNode hosts one fragment whose single entry port leads to op —
// through a Receive when viaReceive is set — fed by four sources of four
// batches per tick each. capacityPerSec picks the keep-all path (1e9) or
// an overloaded one.
func recycleNode(op operator.Operator, viaReceive bool, capacityPerSec float64) *Node {
	n := New(1, Config{
		Interval:       250 * stream.Millisecond,
		STW:            10 * stream.Second,
		CapacityPerSec: capacityPerSec,
		Seed:           1,
	}, core.NewBalanceSIC(1))
	fp := &query.FragmentPlan{
		Ops:          []query.OpSpec{{Name: "recorder", New: func() operator.Operator { return op }}},
		Entries:      map[int]query.Entry{0: {Op: 0}},
		UpstreamPort: -1,
	}
	if viaReceive {
		fp.Ops = append([]query.OpSpec{{Name: "receive", New: func() operator.Operator { return operator.NewReceive() }, Outs: []query.Edge{{To: 1}}}}, fp.Ops...)
		fp.OutOp = 1
	}
	n.hostFragment(1, 0, query.NewFragmentExec(fp), 4, -1, -1, "")
	for i := 0; i < 4; i++ {
		gen := sources.NewValueGen(sources.Uniform, rand.New(rand.NewSource(int64(10+i))))
		n.attachSource(sources.New(stream.SourceID(i), 1, 0, 0, 1600, 16, 1, gen, int64(20+i)))
	}
	return n
}

// steadyTick runs the node for two STWs and returns the stats delta of
// one more tick.
func steadyTick(n *Node, reset func()) Stats {
	for tick := 0; tick < 80; tick++ {
		n.Tick(stream.Time(tick * 250))
	}
	reset()
	before := n.Stats()
	n.Tick(80 * 250)
	after := n.Stats()
	return Stats{KeptBatches: after.KeptBatches - before.KeptBatches, ShedBatches: after.ShedBatches - before.ShedBatches}
}

// TestConsumedBatchesRecycleAtPush: a batch whose fragment consumes it on
// push is released right after the push, so the next batch settled draws
// the same storage from the pool. One steady-state tick's pushes to a
// consuming operator therefore share at most two backing arrays, however
// many batches the tick keeps; a node that released at the end of the tick
// would show one array per kept batch. A batch whose entry operator holds
// it instead must keep its contents until the fragment ticks.
func TestConsumedBatchesRecycleAtPush(t *testing.T) {
	for _, c := range []struct {
		name     string
		capacity float64
	}{{"keep-all", 1e9}, {"overloaded", 4000}} {
		t.Run(c.name+"/consumer", func(t *testing.T) {
			e := &eater{}
			n := recycleNode(e, true, c.capacity)
			d := steadyTick(n, func() { e.arrays = e.arrays[:0] })
			if d.KeptBatches < 8 || (c.capacity < 1e9) != (d.ShedBatches > 0) {
				t.Fatalf("tick kept %d and shed %d batches", d.KeptBatches, d.ShedBatches)
			}
			distinct := map[*stream.Tuple]bool{}
			for _, a := range e.arrays {
				distinct[a] = true
			}
			if len(e.arrays) != int(d.KeptBatches) || len(distinct) > 2 {
				t.Fatalf("%d pushes of %d kept batches used %d backing arrays, want at most 2", len(e.arrays), d.KeptBatches, len(distinct))
			}
			if live := n.pool.Live(); live != 0 {
				t.Fatalf("%d batches live after the tick", live)
			}
		})
		t.Run(c.name+"/holder", func(t *testing.T) {
			r := &recorder{}
			n := recycleNode(r, false, c.capacity)
			d := steadyTick(n, func() { r.arrays, r.changed = r.arrays[:0], 0 })
			if d.KeptBatches < 8 || len(r.arrays) != int(d.KeptBatches) {
				t.Fatalf("%d pushes of %d kept batches", len(r.arrays), d.KeptBatches)
			}
			if r.changed != 0 {
				t.Fatalf("%d of %d held batches changed before the fragment ticked", r.changed, len(r.arrays))
			}
			if live := n.pool.Live(); live != 0 {
				t.Fatalf("%d batches live after the tick", live)
			}
		})
	}
}
