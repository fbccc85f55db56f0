// Streaming quantile estimation for the sink pipeline. The sketch is a
// DDSketch-style logarithmic histogram: values land in geometrically sized
// buckets, so any reported quantile is within a fixed *relative* error of a
// true sample value regardless of the input distribution. That guarantee is
// what lets the streaming sinks promise "within 1% of the exact summary" on
// adversarial inputs (bimodal, heavy-tailed, constant) where rank-error
// sketches like P² or GK can drift arbitrarily far in value space.

package metrics

import "math"

// DefaultSketchAlpha is the relative accuracy the streaming sinks use:
// every quantile estimate q̂ satisfies |q̂ - v| <= alpha·v for some sample
// v in the estimate's rank bucket. 0.25% leaves the rest of the documented
// 1% budget for the gap between neighbouring order statistics.
const DefaultSketchAlpha = 0.0025

// sketchMinValue is the smallest magnitude the log buckets resolve;
// anything in (0, sketchMinValue) collapses into the zero bucket. Serving
// latencies sit in microseconds-to-hours, far above it.
const sketchMinValue = 1e-9

// QuantileSketch estimates quantiles of a nonnegative stream in constant
// memory. Buckets are the geometric cells [gamma^k, gamma^(k+1)) with
// gamma = (1+alpha)/(1-alpha), held in a dense array: counts[i] is cell
// offset+i, and the array spans exactly the cells between the smallest and
// the largest key observed. Its length is therefore bounded by the dynamic
// range of the data (≈5.5k cells spanning 1e-9..1e3 seconds at the default
// alpha), not by the stream length. Negative inputs are clamped into the
// zero bucket — the latency metrics it serves are nonnegative by
// construction. The zero value is not ready; use newQuantileSketch.
type QuantileSketch struct {
	alpha    float64
	logGamma float64
	count    uint64
	zero     uint64   // exact count of values <= sketchMinValue
	offset   int      // key of counts[0]
	counts   []uint64 // cell counts by key − offset
}

// newQuantileSketch returns an empty sketch with the given relative
// accuracy (alpha <= 0 takes DefaultSketchAlpha).
func newQuantileSketch(alpha float64) *QuantileSketch {
	if alpha <= 0 {
		alpha = DefaultSketchAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		alpha:    alpha,
		logGamma: math.Log(gamma),
	}
}

// Count reports how many values the sketch absorbed.
func (q *QuantileSketch) Count() int { return int(q.count) }

// Observe adds one value.
func (q *QuantileSketch) Observe(v float64) {
	q.count++
	if v <= sketchMinValue || math.IsNaN(v) {
		q.zero++
		return
	}
	if v > math.MaxFloat64 {
		v = math.MaxFloat64 // +Inf takes the top finite cell
	}
	key := int(math.Ceil(math.Log(v) / q.logGamma))
	if i := key - q.offset; uint(i) < uint(len(q.counts)) {
		q.counts[i]++
		return
	}
	q.cover(key, key)
	q.counts[key-q.offset]++
}

// cover grows the array to span keys lo..hi as well as what it holds.
// Growth at the top appends, so it is amortized; growth at the bottom
// copies the array, which happens only when a value below every earlier
// one arrives.
func (q *QuantileSketch) cover(lo, hi int) {
	if len(q.counts) == 0 {
		q.offset = lo
		q.counts = make([]uint64, hi-lo+1)
		return
	}
	if top := q.offset + len(q.counts) - 1; hi > top {
		q.counts = append(q.counts, make([]uint64, hi-top)...)
	}
	if lo < q.offset {
		grown := make([]uint64, q.offset-lo+len(q.counts))
		copy(grown[q.offset-lo:], q.counts)
		q.offset, q.counts = lo, grown
	}
}

// Quantile estimates the p-quantile (p in [0,1]) using the same
// rank convention as Percentile: target rank p·(n-1). It returns 0 for an
// empty sketch, matching Percentile's empty-input behaviour.
func (q *QuantileSketch) Quantile(p float64) float64 {
	if q.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// The value at rank r is the (r+1)-th smallest; round the fractional
	// interpolated rank to the nearest order statistic. The rounding is at
	// most one rank off the interpolated value, which the alpha budget
	// documented on DefaultSketchAlpha absorbs for non-degenerate streams.
	rank := uint64(math.Round(p * float64(q.count-1)))
	cum := q.zero
	if rank < cum {
		return 0
	}
	// rank < count, and the cells hold count − zero values, so the walk
	// always ends inside the array.
	k := q.offset
	for _, c := range q.counts {
		cum += c
		if rank < cum {
			break
		}
		k++
	}
	// Midpoint of [gamma^(k-1), gamma^k] in relative terms:
	// 2·gamma^k/(gamma+1) is within alpha of every value in the cell.
	gk := math.Exp(float64(k) * q.logGamma)
	gamma := math.Exp(q.logGamma)
	return 2 * gk / (gamma + 1)
}

// Buckets reports how many log cells the sketch currently holds a value
// in — the memory-bound tests pin this against the stream length.
func (q *QuantileSketch) Buckets() int {
	n := 0
	for _, c := range q.counts {
		if c != 0 {
			n++
		}
	}
	return n
}
