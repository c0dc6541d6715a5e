package control

import (
	"reflect"
	"testing"

	"repro/internal/stream"
)

// Table tests for the checkpoint bank: which blob, if any, Replace hands a
// re-placed fragment, and the all-or-nothing verdict per query. Blobs are
// opaque to the plane, so the scripts bank one-byte tags and read them back.

// restored is the comparable restore part of a Replace answer: the warm
// verdict and, per command, whether it attaches and the blob it carries.
type restored struct {
	Warm   bool
	Attach []bool
	Blobs  []string
}

func checkpoint(q stream.QueryID, f int, blob string) event {
	return func(_ *testing.T, p *Plane) any {
		p.Checkpoint(q, f, []byte(blob))
		return nil
	}
}

func restore(q stream.QueryID, pin int64) event {
	return func(t *testing.T, p *Plane) any {
		t.Helper()
		cmds, warm, err := p.Replace(q, pin)
		if err != nil {
			t.Fatal(err)
		}
		out := restored{Warm: warm}
		for _, c := range cmds {
			out.Attach = append(out.Attach, c.Attach)
			out.Blobs = append(out.Blobs, string(c.Restore))
		}
		return out
	}
}

func banked(q stream.QueryID, f int) event {
	return func(_ *testing.T, p *Plane) any { return string(p.Checkpointed(q, f)) }
}

func TestBankScripts(t *testing.T) {
	scenarios := []struct {
		name    string
		sharing Sharing
		members int
		steps   []step
	}{
		{
			name: "own record beats compat", sharing: SharingOff, members: 3,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{1}, 0), []dep{{Q: 1, N: 1}}},
				{checkpoint(0, 0, "a"), nil},
				{checkpoint(1, 0, "b"), nil},
				{fail(1), ids{1}},
				{restore(1, 1), restored{Warm: true, Attach: []bool{false}, Blobs: []string{"b"}}},
			},
		},
		{
			name: "compat owner is the lowest live id and moves when it retracts", sharing: SharingOff, members: 5,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{1}, 0), []dep{{Q: 1, N: 1}}},
				{submit(1, 20, nodes{2}, 0), []dep{{Q: 2, N: 2}}},
				{submit(1, 40, nodes{3}, 0), []dep{{Q: 3, N: 3}}}, // other rate: never compatible
				// Arrival order is not the rule: the youngest banks last.
				{checkpoint(1, 0, "b"), nil},
				{checkpoint(0, 0, "a"), nil},
				{checkpoint(3, 0, "d"), nil},
				{fail(2), ids{2}}, // round-robin re-places q2 on the lowest free survivor
				{restore(2, 1), restored{Warm: true, Attach: []bool{false}, Blobs: []string{"a"}}},
				{retract(0), retraction{At: nodes{0}}},
				{fail(0), ids{2}},
				{restore(2, 2), restored{Warm: true, Attach: []bool{false}, Blobs: []string{"b"}}},
				{retract(1), retraction{At: nodes{1}}},
				{fail(1), ids{2}},
				{restore(2, 3), restored{Attach: []bool{false}, Blobs: []string{""}}},
			},
		},
		{
			name: "a checkpoint for a retracted query is ignored", sharing: SharingOff, members: 3,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{1}, 0), []dep{{Q: 1, N: 1}}},
				{checkpoint(0, 0, "a"), nil},
				{retract(0), retraction{At: nodes{0}}},
				{checkpoint(0, 0, "late"), nil},
				{checkpoint(7, 0, "unknown"), nil},
				{checkpoint(1, 5, "no such fragment"), nil},
				{banked(0, 0), ""},
				{fail(1), ids{1}},
				{restore(1, 1), restored{Attach: []bool{false}, Blobs: []string{""}}},
			},
		},
		{
			// The stale-blob case: q1 checkpointed while it executed; after the
			// kill it rides q0's re-placed instance and its old blob describes
			// an executor it no longer has. A later failure that makes it host
			// again must not restore from it.
			name: "a fragment re-placed as a rider loses its own record", sharing: SharingFull, members: 4,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{0}, 5), []dep{{Q: 1, N: 0}}}, // later pin: private
				{checkpoint(0, 0, "a"), nil},
				{checkpoint(1, 0, "b"), nil},
				{fail(0), ids{0, 1}},
				{restore(0, 9), restored{Warm: true, Attach: []bool{false}, Blobs: []string{"a"}}},
				{restore(1, 9), restored{Warm: true, Attach: []bool{true}, Blobs: []string{""}}},
				{banked(1, 0), ""},
				{banked(0, 0), "a"},
			},
		},
		{
			name: "a rider is as warm as the instance it attaches to", sharing: SharingFull, members: 3,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 1, N: 0, Attach: true, P: 0, Emit: true}}},
				// No checkpoint yet: the primary comes back cold, and so does
				// the rider although it needs no blob.
				{fail(0), ids{0, 1}},
				{restore(0, 1), restored{Attach: []bool{false}, Blobs: []string{""}}},
				{restore(1, 1), restored{Attach: []bool{true}, Blobs: []string{""}}},
				{checkpoint(0, 0, "a"), nil},
				{fail(1), ids{0, 1}},
				{restore(0, 2), restored{Warm: true, Attach: []bool{false}, Blobs: []string{"a"}}},
				{restore(1, 2), restored{Warm: true, Attach: []bool{true}, Blobs: []string{""}}},
			},
		},
		{
			// q1 rides q0's instance, so only q0 checkpoints it. When q0
			// leaves, q1 executes that instance, and its newest record is
			// q0's: without it a failure right after would find no blob
			// (q0's went with the retract) and turn q1 cold, where its
			// private pipeline would have restored.
			name: "the heir of a departed primary inherits its record", sharing: SharingFull, members: 3,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 1, N: 0, Attach: true, P: 0, Emit: true}}},
				{checkpoint(0, 0, "a"), nil},
				{banked(1, 0), ""},
				{retract(0), retraction{At: nodes{0}, Promos: []Promotion{{Node: 0, OldQ: 0, NewQ: 1}}}},
				{banked(1, 0), "a"},
				{fail(0), ids{1}},
				{restore(1, 1), restored{Warm: true, Attach: []bool{false}, Blobs: []string{"a"}}},
			},
		},
		{
			name: "one hosting fragment without a record makes the query cold", sharing: SharingOff, members: 5,
			steps: []step{
				{submit(2, 20, nodes{0, 1}, 0), []dep{{Q: 0, F: 0, N: 0}, {Q: 0, F: 1, N: 1}}},
				{checkpoint(0, 0, "root"), nil},
				{fail(0), ids{0}},
				{restore(0, 1), restored{Warm: true, Attach: []bool{false}, Blobs: []string{"root"}}},
				{fail(1), ids{0}},
				{fail(2), ids{0}},
				{restore(0, 2), restored{Attach: []bool{false, false}, Blobs: []string{"", ""}}},
				{banked(0, 0), "root"}, // kept: the next checkpoint overwrites it
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			p := New(Config{Sharing: sc.sharing})
			for i := 0; i < sc.members; i++ {
				p.Join()
			}
			for i, st := range sc.steps {
				if got := st.do(t, p); !reflect.DeepEqual(got, st.want) {
					t.Fatalf("step %d: got %+v, want %+v", i, got, st.want)
				}
			}
		})
	}
}

// TestCheckpointReusesItsBuffer: banking into a warm bank allocates
// nothing, which is what keeps the engine's checkpoint tick zero-alloc.
func TestCheckpointReusesItsBuffer(t *testing.T) {
	p := New(Config{})
	p.Join()
	submit(1, 20, nodes{0}, 0)(t, p)
	blob := make([]byte, 512)
	p.Checkpoint(0, 0, blob)
	if n := testing.AllocsPerRun(100, func() { p.Checkpoint(0, 0, blob) }); n != 0 {
		t.Errorf("warm Checkpoint allocates %v times", n)
	}
}
