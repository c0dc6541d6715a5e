// Package releasebad exercises the releasecheck analyzer: one function
// per lifecycle-violation class, plus the sanctioned negative idioms.
package releasebad

import "repro/internal/stream"

func sink(b *stream.Batch) {}

func doubleRelease(p *stream.Pool) {
	b := p.Get(1, 2, 3, 0, 4, 2)
	b.Release()
	b.Release() // want `pooled batch b released twice`
}

func useAfterRelease(p *stream.Pool) int {
	b := p.Get(1, 2, 3, 0, 4, 2)
	b.Release()
	return b.Len() // want `use of pooled batch b after Release`
}

func handoffAfterRelease(p *stream.Pool) {
	b := p.Get(1, 2, 3, 0, 4, 2)
	b.Release()
	sink(b) // want `pooled batch b handed off after Release`
}

func mayLeak(p *stream.Pool, drop bool) {
	b := p.Get(1, 2, 3, 0, 4, 2) // want `pooled batch b may leak`
	if drop {
		return
	}
	b.Release()
}

func discarded(p *stream.Pool) {
	_ = p.Get(1, 2, 3, 0, 4, 2) // want `acquired and discarded`
}

// Header-only batches are pool draws like any other: a header that is
// neither released nor handed on leaks its Live count.

func headerLeak(p *stream.Pool, shed bool) {
	h := p.GetHeader(1, 2, 3, 0, 80, 100, 1e-4, 1e-2) // want `pooled batch h may leak`
	if shed {
		return
	}
	h.Release()
}

// Snapshot-buffer ownership (PR 8): encoding a batch's tuples into a
// snapshot copies them — the encoder never retains the batch — so
// encode-then-Release is the sanctioned checkpoint idiom, while feeding
// an already-released batch to the encoder is a lifecycle violation
// like any other handoff.

func encodeBatch(enc *stream.SnapEncoder, b *stream.Batch) {
	enc.TupleSlice(b.Tuples)
}

func snapshotAfterRelease(p *stream.Pool, enc *stream.SnapEncoder) {
	b := p.Get(1, 2, 3, 0, 4, 2)
	b.Release()
	encodeBatch(enc, b) // want `pooled batch b handed off after Release`
}

// The negatives below must produce no diagnostics.

func snapshotShipThenRelease(p *stream.Pool, enc *stream.SnapEncoder) {
	b := p.Get(1, 2, 3, 0, 4, 2)
	encodeBatch(enc, b)
	b.Release()
}

func releasedOnAllPaths(p *stream.Pool, early bool) {
	b := p.Get(1, 2, 3, 0, 4, 2)
	if early {
		b.Release()
		return
	}
	b.Release()
}

func branchHandoff(p *stream.Pool, keep bool) {
	b := p.GetView(1, 2, 3, 0, nil)
	if keep {
		sink(b)
		return
	}
	b.Release()
}

func returned(p *stream.Pool) *stream.Batch {
	b := p.ViewRetained(nil, 1, 2, 3, 0, nil)
	return b
}

// The header-first settle idiom: a kept header is traded for the batch
// it stood for, which is handed on, and the header is released.
func headerSettled(p *stream.Pool, ib []*stream.Batch) {
	h := p.GetHeader(1, 2, 3, 0, 80, 100, 1e-4, 1e-2)
	n, _, _ := h.Pending()
	b := p.Get(h.Query, h.Frag, h.Source, h.TS, n, 1)
	ib[0] = b
	h.Release()
}

func annotatedTransfer(p *stream.Pool) {
	//themis:owns fixture negative: ownership handed to an external registry the analysis cannot see.
	b := p.Get(1, 2, 3, 0, 4, 2)
	_ = b.Len()
}

func panicPathExcused(p *stream.Pool, n int) {
	b := p.Get(1, 2, 3, 0, 4, 2)
	if n < 0 {
		panic("bad n")
	}
	b.Release()
}
