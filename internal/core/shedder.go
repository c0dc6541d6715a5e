// Package core implements the paper's primary contribution: the
// BALANCE-SIC distributed fair load-shedding algorithm (Algorithm 1, §5),
// the random-shedding baseline it is evaluated against, and the online
// cost model that estimates node capacity (§6).
//
// A shedder runs on every FSPS node independently — there is no central
// shedding controller, respecting site autonomy (C3, §2.1). Each
// invocation examines the node's input buffer (a set of batches, each
// carrying a SIC header) and selects which batches to keep so that the
// total kept tuples fit the node's capacity for one shedding interval.
package core

import (
	"repro/internal/stream"
)

// ResultSICFunc reports the node's current estimate of a query's result
// SIC value over the sliding STW. For BALANCE-SIC this is the latest
// coordinator update (§5.2's updateSIC dissemination); the shedder applies
// its local projection on top (§6).
type ResultSICFunc func(q stream.QueryID) float64

// Shedder selects the batches a node keeps for processing during one
// shedding interval; everything else is shed (Algorithm 1's
// shedTuples(T/X)).
type Shedder interface {
	// Name identifies the policy ("balance-sic", "random").
	Name() string
	// Select returns the indices into ib of the batches to keep. The
	// total tuple count of kept batches must not exceed capacity.
	// resultSIC provides per-query result SIC estimates; policies that
	// ignore SIC may disregard it. The returned slice may alias
	// shedder-owned scratch: it is valid only until the next Select
	// call, so callers that keep it must copy.
	//
	// The returned order is the order in which the kept batches reach
	// their fragments, and so the order operators fold them in. BalanceSIC
	// and KeepAll return ascending indices, which is input-buffer order;
	// Random returns its permutation order, and its figures depend on it.
	Select(ib []*stream.Batch, capacity int, resultSIC ResultSICFunc) []int
}

// KeptTuples sums the tuple counts of the selected batches — a helper for
// capacity assertions in tests and the node runtime.
func KeptTuples(ib []*stream.Batch, keep []int) int {
	n := 0
	for _, i := range keep {
		n += ib[i].Len()
	}
	return n
}
