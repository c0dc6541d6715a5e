package operator

import (
	"repro/internal/stream"
)

// Partial aggregation operators implement the "incremental fashion" of the
// complex workload's multi-fragment queries (§7: "Each fragment connects
// to sources and contains the same operators, performing equivalent
// processing as a single-fragment query in an incremental fashion").
//
// A PartialAvg emits mergeable (sum, count) tuples; AvgFinalize merges
// partials — local and upstream — and emits the combined average (and,
// in non-root chain fragments, re-emits the merged partial). PartialCov
// and CovFinalize do the same for the covariance query using mergeable
// (n, meanX, meanY, comoment) statistics.

// PartialAvg is a windowed operator emitting one (sum, count) partial
// tuple per window over the given field.
type PartialAvg struct {
	folding
	field int
}

// NewPartialAvg builds a partial average over the given field.
func NewPartialAvg(spec stream.WindowSpec, field int) *PartialAvg {
	p := &PartialAvg{field: field}
	p.init(spec, p)
	return p
}

// Name implements Operator.
func (p *PartialAvg) Name() string { return "partial-avg" }

func (p *PartialAvg) accumulate(w *openWin, in []stream.Tuple) {
	sum := w.acc.sum
	for i := range in {
		sum += in[i].V[p.field]
	}
	w.acc.sum = sum
}

func (p *PartialAvg) finish(w *openWin, edge stream.Time, emit func([]stream.Tuple)) {
	if w.n > 0 {
		emit(p.out.one(edge, w.sic, w.acc.sum, float64(w.n)))
	}
}

func (p *PartialAvg) encode(enc *stream.SnapEncoder, w *openWin) { enc.F64(w.acc.sum) }

func (p *PartialAvg) decode(dec *stream.SnapDecoder, w *openWin) error {
	w.acc.sum = dec.F64()
	return dec.Err()
}

// AvgMerge merges (sum, count) partial tuples arriving within a window —
// its own fragment's partial plus any upstream fragments' partials — and
// emits a combined partial (sum, count) tuple. The root fragment follows
// it with an AvgFinalize to produce the user-facing average.
type AvgMerge struct {
	windowed
	out arena
}

// NewAvgMerge builds a partial-average merge.
func NewAvgMerge(spec stream.WindowSpec) *AvgMerge {
	return &AvgMerge{windowed: newWindowed(spec)}
}

// Name implements Operator.
func (m *AvgMerge) Name() string { return "avg-merge" }

// Tick implements Operator.
func (m *AvgMerge) Tick(now stream.Time, emit func([]stream.Tuple)) {
	m.out.reset()
	m.win.Tick(now, func(win []stream.Tuple, closeAt stream.Time) {
		if len(win) == 0 {
			return
		}
		total := m.consumedSIC(win)
		var sum, count float64
		for i := range win {
			sum += win[i].V[0]
			count += win[i].V[1]
		}
		emit(m.out.one(closeAt, total, sum, count))
	})
}

// AvgFinalize converts merged (sum, count) partials into [avg] result
// tuples, one per input tuple, preserving SIC.
type AvgFinalize struct {
	passThrough
	out arena
}

// NewAvgFinalize builds the finalizer.
func NewAvgFinalize() *AvgFinalize { return &AvgFinalize{} }

// Name implements Operator.
func (f *AvgFinalize) Name() string { return "avg-finalize" }

// Tick implements Operator.
func (f *AvgFinalize) Tick(now stream.Time, emit func([]stream.Tuple)) {
	f.out.reset()
	in := f.take()
	if len(in) == 0 {
		return
	}
	m := f.out.mark()
	for i := range in {
		sum, count := in[i].V[0], in[i].V[1]
		if count == 0 {
			continue
		}
		f.out.add(stream.Tuple{TS: in[i].TS, SIC: in[i].SIC, V: f.out.row(sum / count)})
	}
	if out := f.out.since(m); len(out) > 0 {
		emit(out)
	}
}

// PartialCov is a windowed operator over paired streams of values: port 0
// carries X tuples, port 1 carries Y tuples (Table 1's SrcCPU1 / SrcCPU2).
// Per window it pairs tuples by position and emits one mergeable partial
// (n, meanX, meanY, comoment) tuple.
//
// Over a tumbling time window it folds on push: per open window and port
// it keeps the SIC sum and a column of the one field it reads. Over any
// other window it buffers both inputs through paired and copies each
// closed pair's fields into scratch columns, so one finish serves both.
type PartialCov struct {
	grid            // the folded path
	buf     *paired // the buffered path; nil while folding
	out     arena
	scratch openWin // a buffered pair's columns
	fieldX  int
	fieldY  int
}

// NewPartialCov builds a partial covariance over the given fields of the
// two input streams. Like NewWindowBuffer it panics on an invalid spec.
func NewPartialCov(spec stream.WindowSpec, fieldX, fieldY int) *PartialCov {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	p := &PartialCov{fieldX: fieldX, fieldY: fieldY}
	if tumbling(spec) {
		p.grid = newGrid(spec.Range)
	} else {
		buf := newPaired(spec)
		p.buf = &buf
	}
	return p
}

// Name implements Operator.
func (p *PartialCov) Name() string { return "partial-cov" }

// InPorts implements Operator.
func (p *PartialCov) InPorts() int { return 2 }

// Push implements Operator.
func (p *PartialCov) Push(port int, in []stream.Tuple) {
	if p.buf != nil {
		p.buf.Push(port, in)
		return
	}
	for len(in) > 0 {
		w, n := p.run(in, port)
		if w != nil {
			if port == 0 {
				w.x = column(w.x, in[:n], p.fieldX)
			} else {
				w.y = column(w.y, in[:n], p.fieldY)
			}
		}
		in = in[n:]
	}
}

// ConsumesOnPush implements Consumer: the folded path keeps one column
// per port, the buffered one copies into its window buffers.
func (p *PartialCov) ConsumesOnPush() {}

// column appends one field of every tuple of in to col.
func column(col []float64, in []stream.Tuple, field int) []float64 {
	for i := range in {
		col = append(col, in[i].V[field])
	}
	return col
}

// AdvanceTo implements TimeAdvancer.
func (p *PartialCov) AdvanceTo(now stream.Time) {
	if p.buf != nil {
		p.buf.AdvanceTo(now)
		return
	}
	p.advanceTo(now)
}

// Tick implements Operator.
func (p *PartialCov) Tick(now stream.Time, emit func([]stream.Tuple)) {
	p.out.reset()
	if p.buf != nil {
		p.buf.pairs(now, func(xs, ys []stream.Tuple, at stream.Time, sicMass float64) {
			w := &p.scratch
			w.reset()
			w.sic = sicMass
			w.x, w.y = column(w.x, xs, p.fieldX), column(w.y, ys, p.fieldY)
			p.finish(w, at, emit)
		})
		return
	}
	for p.nextEdge <= int64(now) {
		if w := p.closing(); w != nil {
			p.finish(w, stream.Time(p.nextEdge), emit)
		}
		p.advance()
	}
}

// finish emits the partial of one closed window. The sides pair by
// position, so the longer one's tail is left out; a window with an empty
// side emits nothing and its SIC is lost.
func (p *PartialCov) finish(w *openWin, edge stream.Time, emit func([]stream.Tuple)) {
	n := min(len(w.x), len(w.y))
	if n == 0 {
		return
	}
	st := newCovState(w.x[:n], w.y[:n])
	emit(p.out.one(edge, w.sic+w.sicY, st.n, st.meanX, st.meanY, st.comoment))
}

// covState is the mergeable covariance statistic (n, meanX, meanY,
// comoment). Merging two states follows the parallel Welford update.
type covState struct {
	n        float64
	meanX    float64
	meanY    float64
	comoment float64
}

// newCovState computes the exact statistic over equal-length paired
// columns.
func newCovState(xs, ys []float64) covState {
	n := len(xs)
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cm float64
	for i := 0; i < n; i++ {
		cm += (xs[i] - mx) * (ys[i] - my)
	}
	return covState{n: float64(n), meanX: mx, meanY: my, comoment: cm}
}

// merge combines another state into s (parallel covariance merge).
func (s *covState) merge(o covState) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	dx := o.meanX - s.meanX
	dy := o.meanY - s.meanY
	s.comoment += o.comoment + dx*dy*s.n*o.n/n
	s.meanX += dx * o.n / n
	s.meanY += dy * o.n / n
	s.n = n
}

// sampleCov converts a state into a sample covariance.
func (s *covState) sampleCov() (float64, bool) {
	if s.n < 2 {
		return 0, false
	}
	return s.comoment / (s.n - 1), true
}

// CovMerge merges covariance partial tuples (n, meanX, meanY, comoment)
// arriving within a window and re-emits the combined partial.
type CovMerge struct {
	windowed
	out arena
}

// NewCovMerge builds a covariance partial merge.
func NewCovMerge(spec stream.WindowSpec) *CovMerge {
	return &CovMerge{windowed: newWindowed(spec)}
}

// Name implements Operator.
func (m *CovMerge) Name() string { return "cov-merge" }

// Tick implements Operator.
func (m *CovMerge) Tick(now stream.Time, emit func([]stream.Tuple)) {
	m.out.reset()
	m.win.Tick(now, func(win []stream.Tuple, closeAt stream.Time) {
		if len(win) == 0 {
			return
		}
		total := m.consumedSIC(win)
		var st covState
		for i := range win {
			st.merge(covState{n: win[i].V[0], meanX: win[i].V[1], meanY: win[i].V[2], comoment: win[i].V[3]})
		}
		emit(m.out.one(closeAt, total, st.n, st.meanX, st.meanY, st.comoment))
	})
}

// CovFinalize converts covariance partials into [cov] result tuples.
type CovFinalize struct {
	passThrough
	out arena
}

// NewCovFinalize builds the finalizer.
func NewCovFinalize() *CovFinalize { return &CovFinalize{} }

// Name implements Operator.
func (f *CovFinalize) Name() string { return "cov-finalize" }

// Tick implements Operator.
func (f *CovFinalize) Tick(now stream.Time, emit func([]stream.Tuple)) {
	f.out.reset()
	in := f.take()
	if len(in) == 0 {
		return
	}
	m := f.out.mark()
	for i := range in {
		st := covState{n: in[i].V[0], meanX: in[i].V[1], meanY: in[i].V[2], comoment: in[i].V[3]}
		if cov, ok := st.sampleCov(); ok {
			f.out.add(stream.Tuple{TS: in[i].TS, SIC: in[i].SIC, V: f.out.row(cov)})
		}
	}
	if out := f.out.since(m); len(out) > 0 {
		emit(out)
	}
}
