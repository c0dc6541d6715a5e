package control

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"strconv"
)

// Sharing selects whether a federation deduplicates work across
// structurally identical CQL submissions (same plan-cache shape key).
// Either way every query draws structurally seeded streams, so
// same-shape queries on one feed monitor the same logical stream (the
// production semantics — 4,800 dashboards over one metric feed) and one
// query's checkpoint is a valid warm start for another.
type Sharing int

const (
	// SharingOff runs every query privately: its own source scan, windows
	// and fragments. The default.
	SharingOff Sharing = iota
	// SharingFull deduplicates fragments: on each node, fragments whose
	// plan subtrees have the same canonical shape key (cql.SubtreeKeys —
	// leaves and interior partial-aggregate fragments alike), the same rate
	// and the same time pin collapse into one executing instance — one
	// source scan, one window buffer, one merge — whose output fans out to
	// every subscribing query as refcounted views, with per-query SIC
	// accounting preserved at the fan-out point. Results stay bit-identical
	// per query to SharingOff in underload.
	SharingFull
)

// String names the sharing mode for reports.
func (s Sharing) String() string {
	if s == SharingFull {
		return "full"
	}
	return "off"
}

// ratePin is the rate and feed component of every structural identity:
// queries of different rates, or on different feeds, never share a
// stream, an instance or a checkpoint. Feed 0 appends nothing, so the
// identities of queries on the default feed do not depend on feeds
// existing at all.
func (p *Plane) ratePin(rate float64, feed int) string {
	if p.pin == "" || rate != p.pinRate {
		p.pinRate, p.pin = rate, "|r"+strconv.FormatFloat(rate, 'g', -1, 64)
	}
	if feed != 0 {
		return p.pin + "|d" + strconv.Itoa(feed)
	}
	return p.pin
}

// fragPin appends the fragment index: interchangeable leaves of one
// query scan distinct sources and must never collapse onto each other.
func fragPin(f int) string { return "|f" + strconv.Itoa(f) }

// shareKey mints a fragment's dedup identity: the canonical subtree key
// (equal keys ⇒, given structural seeds and equal rate, the same input
// forever, at every level of the plan; Submit memoises it with the
// fragment pin already appended), the rate pin, and the driver's time
// pin — a late arrival never attaches to an instance with warm window
// state its private pipeline would not have had, and fragments
// co-displaced by one failure re-share only with each other. The pin's
// tag is "|p" for a submission, "|k" for a recovery: the engine pins both
// to its tick, and a query submitted in a recovery's tick must neither
// ride the restored instance nor be ridden by a re-placed fragment.
func (q *Query) shareKey(f int, tag string, pin int64) string {
	return q.subKeys[f] + q.ratePin + tag + strconv.FormatInt(pin, 10)
}

// compatible reports whether o's checkpointed fragment state is a valid
// warm start for q's fragment of the same index: same shape and same
// rate pin — the share identity without its time pin. Such fragments
// observe the same logical stream, so their window state is
// exchangeable.
func (q *Query) compatible(o *Query) bool {
	return q.Shape == o.Shape && q.ratePin == o.ratePin
}

// structuralSeed hashes (base seed, shape, rate pin, fragment) into the one
// seed a fragment's sources draw their generator and emission
// seeds from, in source order — FNV-1a over the identifying facts.
// Excluding the time pin keeps a fragment re-placed after failure on the
// same logical stream as the instance it replaces; including the base
// seed lets a virtual-time replay and its networked twin, configured
// with one seed, draw identical streams.
func (q *Query) structuralSeed(base int64, f int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	io.WriteString(h, q.Shape)
	io.WriteString(h, q.ratePin)
	io.WriteString(h, fragPin(f))
	return int64(h.Sum64() >> 1) // non-negative, rand.NewSource-friendly
}
