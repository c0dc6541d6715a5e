package experiments

import (
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/stream"
)

// TestPaperFiguresPinned pins the bits of every paper figure at tiny
// scale. The shape tests above check who wins and by roughly what factor;
// a change that moves a figure's numbers without changing its shape
// passes all of them and fails here. Each pin is an FNV-1a digest over
// every numeric field of the figure's result (digest), so only the
// figures' own numbers are covered: §7.6, the one result with wall-clock
// fields, is not pinned. A pin that moves is re-recorded with a
// CHANGES.md line saying which figure moved and why.
func TestPaperFiguresPinned(t *testing.T) {
	pins := []struct {
		name string
		want uint64
		run  func() any
	}{
		{"table1", 0x0f16b8080822a033, func() any { return Table1Queries() }},
		{"fig6", 0x4da47cd0d02ac88b, func() any { return Fig6(tiny, 1) }},
		{"fig7", 0x62fd888145470cbc, func() any { return Fig7(tiny, 1) }},
		{"fig8", 0xf91f7b315d5e2aff, func() any { return Fig8(tiny, 1) }},
		{"fig9", 0x9fb0cf9771e83014, func() any { return Fig9(tiny, 1) }},
		{"fig10", 0xc846c35e478df88e, func() any { return Fig10(tiny, 1) }},
		{"fig11", 0x2c1e86a9345764a2, func() any { return Fig11(tiny, 1) }},
		{"fig12", 0x0cca944dbf90ad62, func() any { return Fig12(tiny, 1) }},
		{"fig13", 0x0702d1474f2c9b3c, func() any { return Fig13(tiny, 1) }},
		{"fig14", 0xfd7e5a9e2b28dee5, func() any { return Fig14(tiny, 1) }},
		{"sec75", 0xbb49a909a7c72328, func() any { return Sec75(tiny, 1) }},
		{"stw", 0x7a839074f6177e23, func() any { return STW(tiny, 1) }},
		{"ablation", 0xfe92d33acbddb1eb, func() any { return Ablation(tiny, 1) }},
		{"churn", 0x04745ca4ce8cf5aa, func() any {
			r, err := ChurnRecovery([]stream.Duration{1 * stream.Second, 2 * stream.Second}, 1)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"dynamic", 0x349789ea069c6a12, func() any {
			r, err := DynamicWorkload(tiny, 1)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	}
	for _, p := range pins {
		if got := digest(p.run()); got != p.want {
			t.Errorf("%s: digest %#016x, pinned %#016x — the figure's numbers moved", p.name, got, p.want)
		}
	}
}

// digest hashes every float (by its bits), integer and bool reachable
// from v, in field and element order; map entries are visited in
// ascending key order. Strings are skipped: they are labels and
// renderings of the numbers already hashed.
func digest(v any) uint64 {
	h := fnv.New64a()
	digestValue(h, reflect.ValueOf(v))
	return h.Sum64()
}

func digestValue(h hash.Hash64, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			digestValue(h, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
		for _, k := range keys {
			put(uint64(k.Int()))
			digestValue(h, v.MapIndex(k))
		}
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	}
}
