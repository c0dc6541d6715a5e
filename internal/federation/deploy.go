package federation

import "repro/internal/stream"

// Table 2 presets.

// LocalTestbed configures the paper's local test-bed: one processing
// node, sources at 400 tuples/sec in 5 batches/sec (Table 2). capacity is
// the processing node's speed in tuples/sec. Non-zero rate fields in cfg
// take precedence, so scaled-down experiment configurations pass through.
func LocalTestbed(cfg Config, capacity float64) (*Engine, stream.NodeID) {
	if cfg.SourceRate <= 0 {
		cfg.SourceRate = 400
	}
	if cfg.BatchesPerSec <= 0 {
		cfg.BatchesPerSec = 5
	}
	if cfg.Latency == 0 {
		cfg.Latency = 1 * stream.Millisecond
	}
	e := NewEngine(cfg)
	id := e.AddNode(capacity)
	return e, id
}

// Emulab configures the paper's Emulab test-bed: up to 18 processing
// nodes on a star LAN with 5 ms links, sources at 150 tuples/sec in
// 3 batches/sec (Table 2). Non-zero rate/latency fields in cfg take
// precedence.
func Emulab(cfg Config, numNodes int, capacity float64) *Engine {
	if cfg.SourceRate <= 0 {
		cfg.SourceRate = 150
	}
	if cfg.BatchesPerSec <= 0 {
		cfg.BatchesPerSec = 3
	}
	if cfg.Latency == 0 {
		cfg.Latency = 5 * stream.Millisecond
	}
	e := NewEngine(cfg)
	e.AddNodes(numNodes, capacity)
	return e
}
