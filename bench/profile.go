package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the gzipped pprof profile.proto that runtime/pprof
// writes: just the fields needed to attribute each CPU sample to a layer.
// Field numbers are those of github.com/google/pprof/proto/profile.proto.

var errTruncated = errors.New("profile: truncated message")

// pbField is one decoded protobuf field: a varint in val or a
// length-delimited payload in data.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbNext decodes the field at the head of b and returns the rest.
func pbNext(b []byte) (pbField, []byte, error) {
	key, b, err := pbVarint(b)
	if err != nil {
		return pbField{}, nil, err
	}
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.val, b, err = pbVarint(b)
		return f, b, err
	case 1, 5:
		n := 8
		if f.wire == 5 {
			n = 4
		}
		if len(b) < n {
			return f, nil, errTruncated
		}
		return f, b[n:], nil
	case 2:
		n, rest, err := pbVarint(b)
		if err != nil {
			return f, nil, err
		}
		if uint64(len(rest)) < n {
			return f, nil, errTruncated
		}
		f.data = rest[:n]
		return f, rest[n:], nil
	}
	return f, nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
}

// pbUints appends a repeated integer field, packed or not, to dst.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return dst, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// pbEach calls fn for every field of the message in b.
func pbEach(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		f, rest, err := pbNext(b)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

type profSample struct {
	locs   []uint64
	values []uint64
}

// cpuShares reads a gzipped CPU profile and returns the share of sampled
// CPU time per layer of cpuShareLayers (summing to 1), and the number of
// stacks sampled. A profile with no samples gives all-zero shares.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		samples  []profSample
		strs     []string
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]uint64{}   // function id -> string index
	)
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s profSample
			err := pbEach(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(s.locs, g)
				case 2:
					s.values, err = pbUints(s.values, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line: function_id = 1
					return pbEach(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: id = 1, name = 2
			var id, name uint64
			err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	shares := make(map[string]float64, len(cpuShareLayers))
	for _, l := range cpuShareLayers {
		shares[l] = 0
	}
	total, count := 0.0, 0
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// A CPU profile sample carries the number of identical stacks
		// first and their nanoseconds last.
		layer := sampleLayer(s.locs, locFuncs, funcName, strs)
		if layer == "" {
			continue
		}
		count += int(s.values[0])
		v := float64(s.values[len(s.values)-1])
		shares[layer] += v
		total += v
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares, count, nil
}

// sampleLayer attributes one stack, leaf first, to a layer: the leaf
// function's own package decides, except that a leaf in a general library
// (sort, reflect, strconv, ...) is charged to the nearest caller that has
// a layer, so json's reflection reads as go.json and the shedder's heap
// as core. A stack inside the benchmark's own reference kernel belongs to
// no layer and returns "".
func sampleLayer(locs []uint64, locFuncs map[uint64][]uint64, funcName map[uint64]uint64, strs []string) string {
	for _, loc := range locs {
		for _, fn := range locFuncs[loc] {
			idx := funcName[fn]
			if idx >= uint64(len(strs)) {
				continue
			}
			if strings.HasSuffix(strs[idx], ".refKernel") {
				return ""
			}
			if layer, decided := layerOf(strs[idx]); decided {
				return layer
			}
		}
	}
	return "other"
}

// goBuckets maps package-path prefixes of the Go distribution to buckets.
var goBuckets = []struct{ prefix, layer string }{
	{"internal/runtime/syscall.", "go.syscall"},
	{"runtime/internal/syscall.", "go.syscall"},
	{"syscall.", "go.syscall"},
	{"internal/syscall/", "go.syscall"},
	{"internal/poll.", "go.syscall"},
	{"net.", "go.syscall"},
	{"os.", "go.syscall"},
	{"runtime.", "go.runtime"},
	{"runtime/", "go.runtime"},
	{"internal/runtime/", "go.runtime"},
	{"internal/abi.", "go.runtime"},
	{"internal/bytealg.", "go.runtime"},
	{"internal/cpu.", "go.runtime"},
	{"sync.", "go.runtime"},
	{"sync/atomic.", "go.runtime"},
	{"time.", "go.runtime"},
	{"encoding/", "go.json"},
	{"math/rand.", "go.rand"},
	{"math/rand/", "go.rand"},
}

// layerOf names the layer of a fully qualified function. decided is false
// for a general library function, whose cost belongs to its caller.
func layerOf(fn string) (layer string, decided bool) {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, l := range cpuShareLayers {
			if l == rest {
				return l, true
			}
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/") {
		return "other", true
	}
	for _, b := range goBuckets {
		if strings.HasPrefix(fn, b.prefix) {
			return b.layer, true
		}
	}
	return "other", false
}
