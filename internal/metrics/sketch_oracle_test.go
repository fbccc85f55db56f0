package metrics

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// mapSketch is the frozen map-backed QuantileSketch the dense store
// replaced: the same key function and rank walk over a map of cells with a
// lazily re-sorted key list. FuzzQuantileSketch holds the dense sketch to
// it bit for bit.
type mapSketch struct {
	logGamma float64
	count    uint64
	zero     uint64
	buckets  map[int]uint64
	keys     []int
	dirty    bool
}

func newMapSketch(alpha float64) *mapSketch {
	if alpha <= 0 {
		alpha = DefaultSketchAlpha
	}
	return &mapSketch{logGamma: math.Log((1 + alpha) / (1 - alpha)), buckets: map[int]uint64{}}
}

func (q *mapSketch) Observe(v float64) {
	q.count++
	if v <= sketchMinValue || math.IsNaN(v) {
		q.zero++
		return
	}
	key := int(math.Ceil(math.Log(v) / q.logGamma))
	if _, ok := q.buckets[key]; !ok {
		q.dirty = true
	}
	q.buckets[key]++
}

func (q *mapSketch) Merge(other *mapSketch) {
	q.count += other.count
	q.zero += other.zero
	for k, c := range other.buckets {
		if _, ok := q.buckets[k]; !ok {
			q.dirty = true
		}
		q.buckets[k] += c
	}
}

func (q *mapSketch) Quantile(p float64) float64 {
	if q.count == 0 {
		return 0
	}
	p = max(0, min(1, p))
	rank := uint64(math.Round(p * float64(q.count-1)))
	if rank < q.zero {
		return 0
	}
	if q.dirty {
		q.keys = q.keys[:0]
		for k := range q.buckets {
			q.keys = append(q.keys, k)
		}
		sort.Ints(q.keys)
		q.dirty = false
	}
	cum := q.zero
	for _, k := range q.keys {
		cum += q.buckets[k]
		if rank < cum {
			gk := math.Exp(float64(k) * q.logGamma)
			gamma := math.Exp(q.logGamma)
			return 2 * gk / (gamma + 1)
		}
	}
	panic("mapSketch: rank past the last cell")
}

// maxSketchOps caps one fuzz input's operations; every op is followed by
// a full comparison that walks the whole key span.
const maxSketchOps = 512

// sketchSpecials are the inputs whose handling is easiest to get wrong:
// the zero-bucket boundary on both sides, signed zeros, negatives, NaN and
// the ends of the fuzzed 1e-12..1e6 range.
var sketchSpecials = []float64{
	0, math.Copysign(0, -1), -1, -1e-3, math.NaN(),
	1e-12, sketchMinValue, math.Nextafter(sketchMinValue, 1), 2e-9,
	1e-6, 1e-3, 0.05, 1, 1e3, 1e6,
}

// FuzzQuantileSketch feeds the dense sketch and the map oracle the same
// stream of observations and merges over a pair of sketches each, and
// requires equal Count, Buckets and quantiles at p ∈ {0, .5, .95, .99, 1},
// bit for bit, after every operation. Byte 0 picks the alpha; then every
// 3 bytes are one op: the low bits of the first choose observe-into-a,
// observe-into-b, merge b into a or merge a into b (the source then
// starts empty), and the other two
// encode the value — a special when the second byte indexes
// sketchSpecials, else a log-uniform draw from 1e-12 to 1e6. Input past
// maxSketchOps ops is ignored.
func FuzzQuantileSketch(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 1, 2, 1, 3, 4, 2, 0, 0, 0, 40, 200, 1, 80, 7, 3, 0, 0})
	f.Add([]byte{1, 0, 5, 0, 0, 6, 0, 0, 7, 0, 1, 8, 0, 2, 0, 0, 0, 0, 3, 0, 0})
	seed := []byte{2}
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i%2), byte(16+i*3), byte(i*37))
		if i%9 == 0 {
			seed = append(seed, 2+byte(i%2), 0, 0)
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		alpha := []float64{0, 0.01, 0.05}[int(data[0])%3]
		dense := [2]*QuantileSketch{newQuantileSketch(alpha), newQuantileSketch(alpha)}
		oracle := [2]*mapSketch{newMapSketch(alpha), newMapSketch(alpha)}
		ops := data[1:min(len(data), 1+3*maxSketchOps)]
		for i := 0; i+3 <= len(ops); i += 3 {
			op, b := ops[i]%4, ops[i+1:i+3]
			switch op {
			case 0, 1:
				v := sketchValue(b)
				dense[op].Observe(v)
				oracle[op].Observe(v)
			case 2, 3:
				to, from := op-2, 3-op
				if err := dense[to].Merge(dense[from]); err != nil {
					t.Fatal(err)
				}
				oracle[to].Merge(oracle[from])
				// The source starts over, as a finished shard's or
				// window's sketch does once merged.
				dense[from], oracle[from] = newQuantileSketch(alpha), newMapSketch(alpha)
			}
			for k := range dense {
				checkSketchEqual(t, i/3, dense[k], oracle[k])
			}
		}
	})
}

// sketchValue decodes one fuzzed value.
func sketchValue(b []byte) float64 {
	if int(b[0]) < len(sketchSpecials) {
		return sketchSpecials[b[0]]
	}
	u := float64(binary.LittleEndian.Uint16(b)) / math.MaxUint16
	return math.Pow(10, -12+18*u)
}

func checkSketchEqual(t *testing.T, op int, got *QuantileSketch, want *mapSketch) {
	t.Helper()
	if got.Count() != int(want.count) {
		t.Fatalf("op %d: Count %d, oracle %d", op, got.Count(), want.count)
	}
	if got.Buckets() != len(want.buckets) {
		t.Fatalf("op %d: Buckets %d, oracle %d", op, got.Buckets(), len(want.buckets))
	}
	for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
		g, w := got.Quantile(p), want.Quantile(p)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("op %d: Quantile(%g) = %v, oracle %v", op, p, g, w)
		}
	}
}
