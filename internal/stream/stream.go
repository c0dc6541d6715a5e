// Package stream defines the data model of the THEMIS federated stream
// processing system: logical time, tuples carrying source information
// content (SIC) meta-data, batches with SIC headers, schemas, and window
// specifications.
//
// The model follows §3 of the paper: a tuple t is a triple (τ, SIC, V)
// where τ is the logical timestamp, SIC ∈ R+ is the source information
// content meta-data (§4), and V is the payload according to the tuple's
// schema. A stream is an infinite time-ordered sequence of tuples. When an
// operator atomically outputs multiple tuples they are grouped into a
// batch, which carries a single SIC header (§6).
package stream

import "fmt"

// Time is a logical timestamp in milliseconds since the start of an
// experiment or deployment. THEMIS only ever compares and subtracts
// timestamps, so an epoch-free monotonic clock is sufficient.
type Time int64

// Duration is a span of logical time in milliseconds.
type Duration int64

// Common durations.
const (
	Millisecond Duration = 1
	Second      Duration = 1000
	Minute      Duration = 60 * Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the duration in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// QueryID identifies a query within a federated deployment.
type QueryID int32

// FragID identifies a fragment within its query. Fragments are numbered
// 0..k-1; by convention fragment 0 is the root fragment that emits the
// query result stream.
type FragID int32

// SourceID identifies a data source within a deployment.
type SourceID int32

// NodeID identifies an FSPS node. Each node corresponds to an autonomous
// site (§3: "without loss of generality, we focus on single-node sites").
type NodeID int32

// Tuple is a single stream data item. V aliases into a batch-owned backing
// array; tuples are value types and must be treated as immutable once
// emitted by an operator.
type Tuple struct {
	// TS is the logical timestamp of the tuple's generation, either by a
	// source (source tuple) or by an operator (derived tuple).
	TS Time
	// SIC is the source information content carried by this tuple (§4).
	// Source tuples are assigned SIC = 1/(|T^S_s|·|S|) (Eq. 1); derived
	// tuples receive the sum of their inputs' SIC divided by the number
	// of outputs (Eq. 3).
	SIC float64
	// V holds the payload values in schema field order.
	V []float64
}

// Schema names the payload fields of a stream. Field i of the schema is
// V[i] of every tuple on the stream.
type Schema struct {
	fields []string
	index  map[string]int
}

// NewSchema builds a schema from field names. Names must be unique.
func NewSchema(fields ...string) *Schema {
	s := &Schema{fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if _, dup := s.index[f]; dup {
			panic(fmt.Sprintf("stream: duplicate schema field %q", f))
		}
		s.index[f] = i
	}
	return s
}

// Arity reports the number of fields.
func (s *Schema) Arity() int { return len(s.fields) }

// Index returns the position of the named field and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex is Index but panics on a missing field. It is used when a plan
// has already been validated.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("stream: schema has no field %q (have %v)", name, s.fields))
	}
	return i
}

// String renders the schema as (a, b, c).
func (s *Schema) String() string {
	out := "("
	for i, f := range s.fields {
		if i > 0 {
			out += ", "
		}
		out += f
	}
	return out + ")"
}
