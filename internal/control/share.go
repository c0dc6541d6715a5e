package control

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"strconv"
)

// Sharing selects how much cross-query work a federation deduplicates
// for structurally identical CQL submissions (same plan-cache shape key).
type Sharing int

const (
	// SharingOff is the legacy behaviour: every query is fully private
	// and source seeds follow submission order, so even same-shape
	// queries observe unrelated data. The default.
	SharingOff Sharing = iota
	// SharingKeyed derives source seeds from the query's structural shape
	// instead of its submission order: same-shape queries monitor the
	// same logical stream (the production semantics — 4,800 dashboards
	// over one metric feed), but every query still runs its own private
	// scan, windows and fragments. This is the apples-to-apples baseline
	// for SharingFull, and what makes one query's checkpoint a valid warm
	// start for another.
	SharingKeyed
	// SharingFull adds fragment deduplication on top of keyed seeds: on
	// each node, fragments whose plan subtrees have the same canonical
	// shape key (cql.SubtreeKeys — leaves and interior partial-aggregate
	// fragments alike), the same rate and the same time pin collapse into
	// one executing instance — one source scan, one window buffer, one
	// merge — whose output fans out to every subscribing query as
	// refcounted views, with per-query SIC accounting preserved at the
	// fan-out point. Results stay bit-identical per query to a private
	// deployment in underload.
	SharingFull
	// SharingScaled widens SharingFull's dedup domain by dropping the
	// rate from the share key: queries whose shapes differ only in source
	// rate ride one instance running at the primary's rate, and their SIC
	// mass is scaled by primaryRate/riderRate at the fan-out point.
	// Results are approximate for riders whose rate differs from the
	// primary's (they observe the primary's stream), so this mode is a
	// deliberate accuracy-for-cost trade and is excluded from the
	// bit-identity guarantees of SharingFull.
	SharingScaled
)

// String names the sharing mode for reports.
func (s Sharing) String() string {
	switch s {
	case SharingKeyed:
		return "keyed"
	case SharingFull:
		return "full"
	case SharingScaled:
		return "scaled"
	default:
		return "off"
	}
}

// ratePin is the rate component of every structural identity: exact
// modes keep queries of different rates apart, SharingScaled collapses
// them (and converts SIC mass at the fan-out point instead).
func (p *Plane) ratePin(rate float64) string {
	if p.cfg.Sharing == SharingScaled {
		return ""
	}
	if p.pin == "" || rate != p.pinRate {
		p.pinRate, p.pin = rate, "|r"+strconv.FormatFloat(rate, 'g', -1, 64)
	}
	return p.pin
}

// fragPin appends the fragment index: interchangeable leaves of one
// query scan distinct sources and must never collapse onto each other.
func fragPin(f int) string { return "|f" + strconv.Itoa(f) }

// shareKey mints a fragment's dedup identity: the canonical subtree key
// (equal keys ⇒, given keyed seeds and equal rate, the same input
// forever, at every level of the plan; Submit memoises it with the
// fragment pin already appended), the rate pin, and the driver's time
// pin — a late arrival never attaches to an instance with warm window
// state its private pipeline would not have had, and fragments
// co-displaced by one failure re-share only with each other.
func (q *Query) shareKey(f int, pin int64) string {
	return q.subKeys[f] + q.ratePin + "|p" + strconv.FormatInt(pin, 10)
}

// compatible reports whether o's checkpointed fragment state is a valid
// warm start for q's fragment of the same index: both keyed, same shape
// and same rate pin — the share identity without its time pin. Under
// keyed seeding such fragments observe the same logical stream, so their
// window state is exchangeable. A query without a shape, or with sharing
// off, is compatible with nothing: only its own snapshot may restore it.
func (q *Query) compatible(o *Query) bool {
	return q.keyed && o.keyed && q.Shape == o.Shape && q.ratePin == o.ratePin
}

// structuralSeed hashes (base seed, shape, rate pin, fragment) into the one
// seed a keyed fragment's sources draw their generator and emission
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
