// Package themis is a from-scratch reproduction of THEMIS (Kalyvianaki,
// Fiscato, Salonidis, Pietzuch — "THEMIS: Fairness in Federated Stream
// Processing under Overload", SIGMOD 2016): a federated stream processing
// system that keeps query processing globally fair under permanent
// overload.
//
// THEMIS tags every tuple with its source information content (SIC) — the
// fraction of the source data generated during a source time window that
// the tuple carries towards a query result. Overloaded nodes run the
// BALANCE-SIC distributed shedding algorithm, which keeps the batches of
// the currently most-degraded queries (highest-value first) so that all
// queries' result SIC values converge, without any central shedding
// controller.
//
// This package is the public façade over the internal implementation:
//
//	cfg := themis.Defaults()
//	cfg.Duration = 60 * themis.Second
//	eng := themis.NewEngine(cfg)
//	eng.AddNodes(4, 8000) // four sites, 8k tuples/sec each
//
//	// Every query is CQL text (Table 1's syntax), planned over
//	// Fragments fragments (default 1) placed one per node.
//	eng.Submit(themis.QuerySubmit{
//		CQL:       `Select Avg(t.v) From Src[Range 1 sec]`,
//		Dataset:   int(themis.Gaussian),
//		Rate:      400,
//		Placement: []themis.NodeID{0},
//	})
//
//	// The complex workload's average over 10 sources per fragment,
//	// planned over three fragments and deployed one per node.
//	eng.Submit(themis.QuerySubmit{
//		CQL:       `Select Avg(t.v) From AllSrc[Range 1 sec]`,
//		Fragments: 3,
//		Rate:      20,
//		Placement: []themis.NodeID{1, 2, 3},
//	})
//
//	res := eng.Run()
//	fmt.Println(res.MeanSIC, res.Jain)
//
// Queries of one statement and rate read the same data unless their
// QuerySubmit.Feed differs. See the examples/ directory for complete
// programs and internal/experiments for the paper's full evaluation.
package themis

import (
	"math/rand"

	"repro/internal/control"
	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Core data-model types (§3).
type (
	// Time is a logical timestamp in milliseconds.
	Time = stream.Time
	// Duration is a span of logical time in milliseconds.
	Duration = stream.Duration
	// Tuple is a stream data item (τ, SIC, V).
	Tuple = stream.Tuple
	// Batch groups atomically-emitted tuples under one SIC header.
	Batch = stream.Batch
	// QueryID identifies a deployed query.
	QueryID = stream.QueryID
	// NodeID identifies an FSPS node (one autonomous site).
	NodeID = stream.NodeID
	// Schema names tuple payload fields.
	Schema = stream.Schema
	// WindowSpec describes an operator's time or count window.
	WindowSpec = stream.WindowSpec
)

// Duration units.
const (
	Millisecond = stream.Millisecond
	Second      = stream.Second
	Minute      = stream.Minute
)

// Federation types.
type (
	// Config parameterises a federated deployment.
	Config = federation.Config
	// Engine is a running federation of THEMIS nodes.
	Engine = federation.Engine
	// Results summarises a run: per-query SIC, Jain's index, overheads.
	Results = federation.Results
	// QueryResult is one query's outcome.
	QueryResult = federation.QueryResult
	// Policy selects the shedding policy.
	Policy = federation.Policy
	// BurstConfig makes sources bursty (§7.4).
	BurstConfig = sources.BurstConfig
	// QuerySubmit describes one CQL submission (Engine.Submit, before
	// the run or between two Steps of it).
	QuerySubmit = federation.QuerySubmit
	// Catalog names the input streams available to CQL queries.
	Catalog = cql.Catalog
	// Dataset selects a source data distribution (§7).
	Dataset = sources.Dataset
)

// Shedding policies.
const (
	// BalanceSIC runs the paper's Algorithm 1 on every node.
	BalanceSIC = federation.PolicyBalanceSIC
	// RandomShedding is the baseline that discards arbitrary batches.
	RandomShedding = federation.PolicyRandom
	// KeepAll disables shedding (perfect-processing reference).
	KeepAll = federation.PolicyKeepAll
)

// Source datasets (§7).
const (
	Gaussian    = sources.Gaussian
	Uniform     = sources.Uniform
	Exponential = sources.Exponential
	Mixed       = sources.Mixed
	PlanetLab   = sources.PlanetLab
)

// DefaultBurst is the paper's §7.4 burstiness setting: 10× the base rate,
// 10% of the time.
var DefaultBurst = sources.DefaultBurst

// Defaults returns the evaluation's base configuration: 250 ms shedding
// interval, 10 s STW, BALANCE-SIC policy.
func Defaults() Config { return federation.Defaults() }

// NewEngine builds a federation engine.
func NewEngine(cfg Config) *Engine { return federation.NewEngine(cfg) }

// LocalTestbed builds the paper's single-processing-node test-bed
// (Table 2) with the given node capacity in tuples/sec.
func LocalTestbed(cfg Config, capacity float64) (*Engine, NodeID) {
	return federation.LocalTestbed(cfg, capacity)
}

// Emulab builds the paper's multi-node test-bed (Table 2).
func Emulab(cfg Config, numNodes int, capacity float64) *Engine {
	return federation.Emulab(cfg, numNodes, capacity)
}

// DefaultCatalog returns a catalog with the paper's Table 1 streams
// (Src, AllSrc, AllSrcCPU, AllSrcMem, SrcCPU1, SrcCPU2) over the given
// dataset.
func DefaultCatalog(d Dataset) *Catalog { return cql.DefaultCatalog(d) }

// Placement helpers.

// UniformPlacement picks k distinct nodes uniformly at random.
func UniformPlacement(rng *rand.Rand, numNodes, k int) []NodeID {
	return control.UniformPlacement(rng, numNodes, k)
}

// ZipfPlacement picks k distinct nodes with Zipf-skewed popularity,
// modelling sites that favour local queries (C1).
func ZipfPlacement(rng *rand.Rand, numNodes, k int, s float64) []NodeID {
	return control.ZipfPlacement(rng, numNodes, k, s)
}

// JainIndex computes Jain's Fairness Index over the values (§7.2).
func JainIndex(values []float64) float64 { return metrics.Jain(values) }
