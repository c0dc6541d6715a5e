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
//	catalog := themis.DefaultCatalog(themis.Gaussian)
//	avg := themis.MustParseQuery(`Select Avg(t.v) From Src[Range 1 sec]`, catalog, 1)
//	eng.DeployQuery(avg, []themis.NodeID{0}, 400)
//
//	// The complex workload's average over 10 sources per fragment,
//	// planned over three fragments and deployed one per node.
//	avgAll := themis.MustParseQuery(`Select Avg(t.v) From AllSrc[Range 1 sec]`, catalog, 3)
//	eng.DeployQuery(avgAll, []themis.NodeID{1, 2, 3}, 20)
//
//	res := eng.Run()
//	fmt.Println(res.MeanSIC, res.Jain)
//
// Every query, Table 1's included, is planned from its CQL text. See the
// examples/ directory for complete programs and internal/experiments for
// the paper's full evaluation.
package themis

import (
	"math/rand"

	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/query"
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
	// Plan is a deployable query template.
	Plan = query.Plan
	// BurstConfig makes sources bursty (§7.4).
	BurstConfig = sources.BurstConfig
	// ChurnEvent schedules node kill/join events at engine ticks.
	ChurnEvent = federation.ChurnEvent
	// QueryChurnEvent schedules query submit/retract events at engine
	// ticks — the virtual-time mirror of live Submit/Retract.
	QueryChurnEvent = federation.QueryChurnEvent
	// QuerySubmit describes one scheduled CQL submission.
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

// ParseQuery parses a CQL-like statement (see Table 1 for the supported
// shapes) against the catalog and plans it over the given number of
// fragments, to be deployed one per node; fragments <= 1 yields a
// single-fragment plan.
func ParseQuery(src string, cat *Catalog, fragments int) (*Plan, error) {
	st, err := cql.Parse(src)
	if err != nil {
		return nil, err
	}
	return cql.PlanDistributed(st, cat, fragments)
}

// MustParseQuery is ParseQuery, panicking on error.
func MustParseQuery(src string, cat *Catalog, fragments int) *Plan {
	return cql.MustPlan(src, cat, fragments)
}

// DefaultCatalog returns a catalog with the paper's Table 1 streams
// (Src, AllSrc, AllSrcCPU, AllSrcMem, SrcCPU1, SrcCPU2) over the given
// dataset.
func DefaultCatalog(d Dataset) *Catalog { return cql.DefaultCatalog(d) }

// Placement helpers.

// UniformPlacement picks k distinct nodes uniformly at random.
func UniformPlacement(rng *rand.Rand, numNodes, k int) []NodeID {
	return federation.UniformPlacement(rng, numNodes, k)
}

// ZipfPlacement picks k distinct nodes with Zipf-skewed popularity,
// modelling sites that favour local queries (C1).
func ZipfPlacement(rng *rand.Rand, numNodes, k int, s float64) []NodeID {
	return federation.ZipfPlacement(rng, numNodes, k, s)
}

// JainIndex computes Jain's Fairness Index over the values (§7.2).
func JainIndex(values []float64) float64 { return metrics.Jain(values) }

// NewMedianOperator exposes the UDF-based median aggregate for custom
// plans — an example of a user-defined operator participating in fair
// shedding with no shedding-aware code (§1).
var NewMedianOperator = operator.NewMedian

// NewUDFOperator wraps an arbitrary windowed user-defined function as an
// operator with automatic Eq. 3 SIC propagation.
var NewUDFOperator = operator.NewUDF
