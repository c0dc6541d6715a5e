package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// modelWindow is the reference WindowBuffer: it keeps every buffered
// tuple in push order, finds each window by scanning all of them and
// retires by filtering. It has no derived state to get wrong.
type modelWindow struct {
	spec     WindowSpec
	buf      []Tuple
	nextEdge int64
	seen     int64
}

// emission is one emit call, deep-copied.
type emission struct {
	CloseAt Time
	Win     []Tuple
}

func copyTuples(in []Tuple) []Tuple {
	out := make([]Tuple, len(in))
	for i, t := range in {
		out[i] = Tuple{TS: t.TS, SIC: t.SIC, V: append([]float64{}, t.V...)}
	}
	return out
}

func (m *modelWindow) push(in []Tuple) {
	m.buf = append(m.buf, copyTuples(in)...)
	m.seen += int64(len(in))
}

func (m *modelWindow) skipTo(now Time) {
	if m.spec.Kind == TimeWindow && m.nextEdge <= int64(now) {
		m.nextEdge += ((int64(now)-m.nextEdge)/m.spec.Slide + 1) * m.spec.Slide
	}
}

func (m *modelWindow) fastForward(now Time) {
	if m.seen == 0 {
		m.skipTo(now)
	}
}

func (m *modelWindow) tick(now Time) (out []emission) {
	if m.spec.Kind == CountWindow {
		for m.seen >= m.nextEdge {
			// buf[0] is tuple number seen-len(buf) of the stream.
			hi := int(m.nextEdge - (m.seen - int64(len(m.buf))))
			lo := max(hi-int(m.spec.Range), 0)
			out = append(out, emission{m.buf[hi-1].TS, copyTuples(m.buf[lo:hi])})
			if drop := hi - int(m.spec.Range) + int(m.spec.Slide); drop > 0 {
				m.buf = m.buf[min(drop, len(m.buf)):]
			}
			m.nextEdge += m.spec.Slide
		}
		return out
	}
	for m.nextEdge <= int64(now) {
		edge := m.nextEdge
		var win, kept []Tuple
		for _, t := range m.buf {
			if ts := int64(t.TS); ts >= edge-m.spec.Range && ts < edge {
				win = append(win, t)
			}
			if int64(t.TS) >= edge+m.spec.Slide-m.spec.Range {
				kept = append(kept, t)
			}
		}
		out = append(out, emission{Time(edge), copyTuples(win)})
		m.buf = kept
		m.nextEdge += m.spec.Slide
	}
	return out
}

// windowPaths counts which WindowBuffer paths a run went through.
type windowPaths struct {
	inPlace, scanned, empty int // time-window emissions by how the window was found
	truncated, compacted    int // ticks by how the buffer retired
	restored                int
}

// TestWindowBufferMatchesModel drives random specs and schedules through
// a WindowBuffer and the reference side by side: in-order and interleaved
// out-of-order pushes, late and early tuples, ragged payloads, empty
// ticks, ticks spanning several edges, FastForward, Reopen and a
// Snapshot→Restore into a buffer holding unrelated state. Every emission
// must match in contents, order, close time and payload values.
func TestWindowBufferMatchesModel(t *testing.T) {
	var paths windowPaths
	for seed := int64(0); seed < 300; seed++ {
		runWindowModel(t, seed, &paths)
	}
	if paths.inPlace == 0 || paths.scanned == 0 || paths.empty == 0 ||
		paths.truncated == 0 || paths.compacted == 0 || paths.restored == 0 {
		t.Fatalf("schedules missed a path: %+v", paths)
	}
	t.Logf("paths covered: %+v", paths)
}

func randomSpec(rng *rand.Rand) WindowSpec {
	switch rng.Intn(4) {
	case 0:
		return TumblingTime(Duration(50 + rng.Intn(400)))
	case 1:
		r := 100 + rng.Intn(400)
		return SlidingTime(Duration(r), Duration(1+rng.Intn(r)))
	case 2:
		return TumblingCount(1 + rng.Intn(40))
	default:
		r := 2 + rng.Intn(40)
		return WindowSpec{Kind: CountWindow, Range: int64(r), Slide: int64(1 + rng.Intn(r))}
	}
}

func runWindowModel(t *testing.T, seed int64, paths *windowPaths) {
	rng := rand.New(rand.NewSource(seed))
	spec := randomSpec(rng)
	wb := NewWindowBuffer(spec)
	model := &modelWindow{spec: spec, nextEdge: spec.Slide}
	// Most runs keep the engine's discipline (tuples of [now, next) pushed
	// in order before Tick(next)); the others mix in disorder.
	disorder := rng.Intn(3) == 0
	arity := rng.Intn(4)
	now := Time(0)
	if rng.Intn(4) == 0 {
		now = Time(rng.Intn(3000))
		wb.FastForward(now)
		model.fastForward(now)
	}
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d spec %+v step %d: %s", seed, spec, step, fmt.Sprintf(format, args...))
	}
	for step := 0; step < 60; step++ {
		next := now + Time(1+rng.Intn(300))
		for b := rng.Intn(4); b > 0; b-- {
			in := make([]Tuple, rng.Intn(30))
			for i := range in {
				ts := now + (next-now)*Time(i)/Time(len(in))
				width := arity
				if disorder {
					switch rng.Intn(10) {
					case 0:
						ts = now - Time(rng.Intn(600)) // late
					case 1:
						ts = next + Time(rng.Intn(300)) // early
					case 2:
						ts = now + Time(rng.Int63n(int64(next-now)))
					}
					if rng.Intn(8) == 0 {
						width = rng.Intn(4) // ragged
					}
				}
				in[i] = Tuple{TS: ts, SIC: rng.Float64(), V: make([]float64, width)}
				for j := range in[i].V {
					in[i].V[j] = rng.NormFloat64()
				}
			}
			wb.Push(in)
			model.push(in)
			// The buffer must own what it keeps: scribble on the input.
			for i := range in {
				in[i].TS, in[i].SIC = -1, -1
				for j := range in[i].V {
					in[i].V[j] = -1
				}
			}
		}
		switch rng.Intn(12) {
		case 0:
			// Checkpoint and resume in a buffer whose own state — cursor,
			// contents, timestamp bounds — is unrelated.
			var enc SnapEncoder
			enc.Reset()
			wb.Snapshot(&enc)
			var dec SnapDecoder
			if err := dec.Init(enc.Seal()); err != nil {
				fail(step, "snapshot: %v", err)
			}
			wb = NewWindowBuffer(spec)
			if rng.Intn(2) == 0 {
				wb.Push([]Tuple{{TS: next, V: []float64{7}}})
			}
			if err := wb.Restore(&dec); err != nil {
				fail(step, "restore: %v", err)
			}
			paths.restored++
		case 1:
			skip := next + Time(rng.Intn(500))
			wb.Reopen(skip)
			model.skipTo(skip)
		case 2:
			wb.FastForward(next) // a no-op once the buffer has seen a tuple
			model.fastForward(next)
		}
		before := wb.Len()
		var got []emission
		wb.Tick(next, func(win []Tuple, closeAt Time) {
			switch {
			case spec.Kind == CountWindow: // always a sub-slice of the buffer
			case len(win) == 0:
				paths.empty++
			case &win[0] == &wb.buf[0]:
				paths.inPlace++
			default:
				paths.scanned++
			}
			got = append(got, emission{closeAt, copyTuples(win)})
		})
		want := model.tick(next)
		if !reflect.DeepEqual(got, want) {
			fail(step, "emissions differ\n got %v\nwant %v", got, want)
		}
		if wb.Len() != len(model.buf) {
			fail(step, "buffered %d tuples, model %d", wb.Len(), len(model.buf))
		}
		switch {
		case wb.Len() == 0 && before > 0:
			paths.truncated++
		case wb.Len() < before:
			paths.compacted++
		}
		now = next
	}
}
