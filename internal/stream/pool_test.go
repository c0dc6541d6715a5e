package stream

import (
	"math/rand"
	"sync"
	"testing"
)

// fillSentinel stamps recognisable values into every tuple of a batch.
func fillSentinel(b *Batch, base float64) {
	for i := range b.Tuples {
		b.Tuples[i].TS = Time(1000 + i)
		b.Tuples[i].SIC = base
		for j := range b.Tuples[i].V {
			b.Tuples[i].V[j] = base + float64(i*10+j)
		}
	}
	b.RecomputeSIC()
}

func TestPoolGetInitialisesBatches(t *testing.T) {
	p := NewPool()
	b := p.Get(7, 2, 3, 500, 10, 3)
	if b.Query != 7 || b.Frag != 2 || b.Source != 3 || b.TS != 500 || b.Port != 0 {
		t.Fatalf("header: %+v", b)
	}
	if b.Len() != 10 {
		t.Fatalf("len: %d", b.Len())
	}
	for i := range b.Tuples {
		tp := &b.Tuples[i]
		if tp.TS != 0 || tp.SIC != 0 || len(tp.V) != 3 {
			t.Fatalf("tuple %d not initialised: %+v", i, tp)
		}
		for j, v := range tp.V {
			if v != 0 {
				t.Fatalf("tuple %d V[%d] = %g, want 0", i, j, v)
			}
		}
	}
	if !b.Pooled() {
		t.Fatal("pooled batch not marked pooled")
	}
}

// TestPoolNoCrossQueryAliasingAfterRecycle is the payload-isolation
// property: a batch recycled from one query must hand the next owner
// fully zeroed tuples whose V slices never alias live storage of the
// previous owner's view of the data.
func TestPoolNoCrossQueryAliasingAfterRecycle(t *testing.T) {
	p := NewPool()
	a := p.Get(1, 0, 0, 0, 16, 2)
	fillSentinel(a, 100)
	// Retain a deep copy of what query 1 saw.
	saw := make([]float64, 0, 32)
	for i := range a.Tuples {
		saw = append(saw, a.Tuples[i].V...)
	}
	a.Release()

	b := p.Get(2, 0, 0, 0, 12, 2) // smaller batch, same class: recycled storage
	for i := range b.Tuples {
		if b.Tuples[i].TS != 0 || b.Tuples[i].SIC != 0 {
			t.Fatalf("recycled tuple %d leaks meta-data: %+v", i, b.Tuples[i])
		}
		for j, v := range b.Tuples[i].V {
			if v != 0 {
				t.Fatalf("recycled tuple %d V[%d] leaks %g from the previous query", i, j, v)
			}
		}
	}
	// Query 2 writing its payload must not change what query 1 copied out.
	fillSentinel(b, 200)
	for k, v := range saw {
		if v != 100+float64((k/2)*10+k%2) {
			t.Fatalf("query 1 copy mutated at %d: %g", k, v)
		}
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.Get(1, 0, 0, 0, 4, 1)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

func TestPlainBatchReleaseIsNoop(t *testing.T) {
	b := NewBatch(1, 0, 0, 0, 4, 1)
	b.Release()
	b.Release() // still a no-op: plain batches have no pool lifecycle
	if b.Pooled() {
		t.Fatal("plain batch claims to be pooled")
	}
}

func TestPoolViewReleaseKeepsParentStorage(t *testing.T) {
	p := NewPool()
	parent := p.Get(1, 0, 0, 0, 8, 1)
	fillSentinel(parent, 50)
	view := p.GetView(1, 0, 0, 0, parent.Tuples[2:6])
	view.RecomputeSIC()
	if view.Len() != 4 {
		t.Fatalf("view len %d", view.Len())
	}
	view.Release()
	// Parent storage must be untouched by the view release.
	for i := range parent.Tuples {
		if parent.Tuples[i].V[0] != 50+float64(i*10) {
			t.Fatalf("parent payload clobbered at %d", i)
		}
	}
	parent.Release()
	if p.Live() != 0 {
		t.Fatalf("live after full release: %d", p.Live())
	}
}

// TestPoolHeaderStandsForItsTuples pins the header-only batch: it reads
// as the batch it stands for (Len, and the SIC its caller summed) while
// holding no tuples, counts as one live draw, and its recycled header
// comes back as a plain view.
func TestPoolHeaderStandsForItsTuples(t *testing.T) {
	p := NewPool()
	real := p.Get(4, 1, 9, 1000, 100, 1)
	for i := range real.Tuples {
		real.Tuples[i].SIC = 1e-4
	}
	real.RecomputeSIC()
	h := p.GetHeader(4, 1, 9, 1000, 1083, 100, 1e-4, real.SIC)
	if h.Len() != 100 || h.Tuples != nil || h.SIC != real.SIC || h.Source != 9 || h.TS != 1000 {
		t.Fatalf("header reads len %d tuples %v SIC %v (want %v) source %d ts %d",
			h.Len(), h.Tuples, h.SIC, real.SIC, h.Source, h.TS)
	}
	if n, end, per := h.Pending(); n != 100 || end != 1083 || per != 1e-4 {
		t.Fatalf("pending (%d, %d, %v)", n, end, per)
	}
	if n, _, _ := real.Pending(); n != 0 {
		t.Fatalf("a batch with tuples reports %d pending", n)
	}
	if p.Live() != 2 {
		t.Fatalf("live %d, want 2", p.Live())
	}
	h.Release()
	real.Release()
	if p.Live() != 0 {
		t.Fatalf("live after release: %d", p.Live())
	}
	v := p.GetView(1, 0, 0, 0, nil) // the recycled header
	if n, _, _ := v.Pending(); v != h || n != 0 || v.Len() != 0 {
		t.Fatalf("recycled header still pending: same=%v pending=%d len=%d", v == h, n, v.Len())
	}
	v.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release of a header did not panic")
		}
	}()
	v.Release()
}

// TestPoolLiveAccountingProperty drives a random get/release schedule and
// checks the leak detector tracks outstanding batches exactly, recycled
// batches come back re-initialised, and nothing panics.
func TestPoolLiveAccountingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPool()
	var live []*Batch
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			n := 1 + rng.Intn(300)
			arity := rng.Intn(4)
			b := p.Get(QueryID(rng.Intn(8)), 0, SourceID(rng.Intn(4)), Time(step), n, arity)
			for i := range b.Tuples {
				if b.Tuples[i].SIC != 0 || len(b.Tuples[i].V) != arity {
					t.Fatalf("step %d: recycled batch not re-initialised", step)
				}
			}
			fillSentinel(b, float64(step))
			live = append(live, b)
		} else {
			i := rng.Intn(len(live))
			live[i].Release()
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if got := p.Live(); got != int64(len(live)) {
			t.Fatalf("step %d: live %d, want %d", step, got, len(live))
		}
	}
	for _, b := range live {
		b.Release()
	}
	if p.Live() != 0 {
		t.Fatalf("leak: %d batches outstanding", p.Live())
	}
}

// TestPoolConcurrentGetRelease hammers one pool from many goroutines —
// a networked host's connection readers decode into the pool its tick
// goroutine draws from and releases into — and relies on -race to catch
// unsynchronised free-list access.
func TestPoolConcurrentGetRelease(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 2000; k++ {
				b := p.Get(QueryID(seed), 0, 0, Time(k), 1+rng.Intn(64), 1+rng.Intn(3))
				fillSentinel(b, float64(k))
				b.Release()
			}
		}(int64(g))
	}
	wg.Wait()
	if p.Live() != 0 {
		t.Fatalf("live after concurrent churn: %d", p.Live())
	}
}

// TestPoolRetainedViewKeepsParentAlive releases owner and views in every
// order and checks the parent's storage survives until the last reference
// drops, then recycles exactly once.
func TestPoolRetainedViewKeepsParentAlive(t *testing.T) {
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {1, 2, 0}}
	for _, order := range orders {
		p := NewPool()
		parent := p.Get(1, 0, 0, 0, 8, 1)
		fillSentinel(parent, 50)
		v1 := p.ViewRetained(parent, 2, 0, 0, 0, parent.Tuples[:4])
		v2 := p.ViewRetained(parent, 3, 0, 0, 0, parent.Tuples[4:])
		handles := []*Batch{parent, v1, v2}
		for k, idx := range order {
			// Before the last release the parent payload must be intact.
			for i := range parent.Tuples {
				if parent.Tuples[i].V[0] != 50+float64(i*10) {
					t.Fatalf("order %v: parent payload clobbered at %d before release %d", order, i, k)
				}
			}
			handles[idx].Release()
		}
		if p.Live() != 0 {
			t.Fatalf("order %v: live %d after all releases", order, p.Live())
		}
		// The recycled storage must be reusable and zeroed.
		b := p.Get(9, 0, 0, 0, 8, 1)
		for i := range b.Tuples {
			if b.Tuples[i].V[0] != 0 {
				t.Fatalf("order %v: recycled payload leaks %g", order, b.Tuples[i].V[0])
			}
		}
		b.Release()
	}
}

// TestPoolRetainedViewChains checks a retained view of a retained view
// keeps the whole chain alive.
func TestPoolRetainedViewChains(t *testing.T) {
	p := NewPool()
	root := p.Get(1, 0, 0, 0, 8, 1)
	fillSentinel(root, 10)
	mid := p.ViewRetained(root, 2, 0, 0, 0, root.Tuples[:6])
	leaf := p.ViewRetained(mid, 3, 0, 0, 0, mid.Tuples[:3])
	root.Release()
	mid.Release()
	// A handle recycles (and leaves the live count) only when its last
	// reference drops: leaf holds mid, mid holds root.
	if p.Live() != 3 || len(root.Tuples) != 8 || freeBatches(p) != 0 {
		t.Fatalf("chain recycled while a transitive view is live: live %d, root len %d", p.Live(), len(root.Tuples))
	}
	if leaf.Tuples[0].V[0] != 10 {
		t.Fatal("leaf lost payload while retained")
	}
	leaf.Release()
	if p.Live() != 0 {
		t.Fatalf("live after chain release: %d", p.Live())
	}
	if freeBatches(p) != 1 || len(p.views) != 2 {
		t.Fatalf("chain recycled %d batches and %d views, want 1 and 2", freeBatches(p), len(p.views))
	}
}

// freeBatches counts the whole batches on the pool's free lists.
func freeBatches(p *Pool) int {
	n := 0
	for c := range p.free {
		n += len(p.free[c])
	}
	return n
}

// checkWiring asserts the batch has n zeroed tuples whose V slices are
// arity wide, zeroed, capped, and tile the batch's slab without overlap.
func checkWiring(t *testing.T, b *Batch, n, arity int) {
	t.Helper()
	if b.Len() != n || len(b.slab) != n*arity {
		t.Fatalf("len %d slab %d, want %d and %d", b.Len(), len(b.slab), n, n*arity)
	}
	for i := range b.Tuples {
		tp := &b.Tuples[i]
		if tp.TS != 0 || tp.SIC != 0 || len(tp.V) != arity || cap(tp.V) != arity {
			t.Fatalf("tuple %d of %d at arity %d: %+v (cap %d)", i, n, arity, tp, cap(tp.V))
		}
		if arity == 0 {
			continue
		}
		if &tp.V[0] != &b.slab[i*arity] {
			t.Fatalf("tuple %d of %d at arity %d does not own row %d of the slab", i, n, arity, i)
		}
		for j, v := range tp.V {
			if v != 0 {
				t.Fatalf("tuple %d V[%d] = %g, want 0", i, j, v)
			}
		}
	}
}

// TestPoolRedrawRewires: a batch recycles as one unit and keeps its
// wiring, so re-drawing it at a different length or arity — longer,
// shorter, wider, narrower, payload-free, past its slab — must hand out
// exactly what a fresh batch would.
func TestPoolRedrawRewires(t *testing.T) {
	p := NewPool()
	shapes := []struct{ n, arity int }{
		{10, 2}, {16, 2}, {4, 2}, {12, 3}, {12, 1}, {16, 0}, {9, 1}, {16, 40}, {16, 2}, {1, 2},
	}
	var first *Batch
	for _, sh := range shapes {
		b := p.Get(1, 0, 0, 0, sh.n, sh.arity)
		if first == nil {
			first = b
		} else if b != first {
			t.Fatalf("shape %+v drew a fresh batch: the class-16 batch was not recycled as a unit", sh)
		}
		checkWiring(t, b, sh.n, sh.arity)
		fillSentinel(b, 100)
		b.Release()
		if len(b.Tuples) != 0 {
			t.Fatal("released handle still exposes its tuples")
		}
	}
	if freeBatches(p) != 1 || p.Live() != 0 {
		t.Fatalf("free %d live %d", freeBatches(p), p.Live())
	}
}

// TestPoolRetainedViewDoubleReleaseStillPanics keeps the per-handle
// double-release guard with refcounts in play.
func TestPoolRetainedViewDoubleReleaseStillPanics(t *testing.T) {
	p := NewPool()
	parent := p.Get(1, 0, 0, 0, 4, 1)
	v := p.ViewRetained(parent, 2, 0, 0, 0, parent.Tuples)
	v.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release of retained view did not panic")
		}
		parent.Release()
		if p.Live() != 0 {
			t.Fatalf("live: %d", p.Live())
		}
	}()
	v.Release()
}

// TestPoolRetainedViewUnpooledParent: retaining a plainly-allocated batch
// degrades to a plain view — no refcount, no panic, GC owns the parent.
func TestPoolRetainedViewUnpooledParent(t *testing.T) {
	p := NewPool()
	parent := NewBatch(1, 0, 0, 0, 4, 1)
	v := p.ViewRetained(parent, 2, 0, 0, 0, parent.Tuples)
	v.Release()
	parent.Release() // no-op
	if p.Live() != 0 {
		t.Fatalf("live: %d", p.Live())
	}
}

// TestPoolConcurrentRetainedViewRelease fans one parent out to many
// goroutines releasing concurrently — Release is callable from any
// goroutine under no lock, which a networked host's tick goroutine and
// connection readers both rely on — and relies on -race plus the
// zero-live postcondition to prove the refcount chain is sound.
func TestPoolConcurrentRetainedViewRelease(t *testing.T) {
	p := NewPool()
	for round := 0; round < 200; round++ {
		parent := p.Get(1, 0, 0, 0, 64, 1)
		fillSentinel(parent, float64(round))
		const fan = 8
		views := make([]*Batch, fan)
		for i := range views {
			views[i] = p.ViewRetained(parent, QueryID(i), 0, 0, 0, parent.Tuples[i*8:(i+1)*8])
		}
		var wg sync.WaitGroup
		for i := range views {
			wg.Add(1)
			go func(v *Batch, want float64) {
				defer wg.Done()
				if v.Tuples[0].SIC != want {
					t.Errorf("view observed wrong payload generation")
				}
				v.Release()
			}(views[i], float64(round))
		}
		parent.Release()
		wg.Wait()
		if p.Live() != 0 {
			t.Fatalf("round %d: live %d", round, p.Live())
		}
		// Recycled exactly once: one parent on the free lists however the
		// releases raced, so the next round draws it again.
		if freeBatches(p) != 1 || len(p.views) != fan {
			t.Fatalf("round %d: %d batches and %d views on the free lists, want 1 and %d", round, freeBatches(p), len(p.views), fan)
		}
	}
}

func TestPoolOversizeRequestsStillWork(t *testing.T) {
	p := NewPool()
	huge := classSizes[numClasses-1] + 1
	b := p.Get(1, 0, 0, 0, huge, 1)
	if b.Len() != huge {
		t.Fatalf("len %d", b.Len())
	}
	fillSentinel(b, 1)
	b.Release() // no class: the garbage collector takes it, nothing is filed
	if p.Live() != 0 || freeBatches(p) != 0 {
		t.Fatalf("live %d, free %d after an oversize release", p.Live(), freeBatches(p))
	}
	// A payload too wide for any class rides a classed batch all the same.
	wide := p.Get(1, 0, 0, 0, 2, huge)
	checkWiring(t, wide, 2, huge)
	wide.Release()
	if freeBatches(p) != 1 {
		t.Fatalf("free %d after releasing a classed batch", freeBatches(p))
	}
	again := p.Get(1, 0, 0, 0, huge, 1)
	if again == b {
		t.Fatal("oversize batch came back from the pool")
	}
	checkWiring(t, again, huge, 1)
	again.Release()
}
