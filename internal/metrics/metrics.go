// Package metrics collects and summarizes serving measurements: per-request
// latency components (TTFT, TPOT, normalized latency), percentiles, and
// time series for the dynamic-behaviour plots.
package metrics

import (
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// RequestRecord captures the lifecycle timestamps of one served request.
type RequestRecord struct {
	ID         int64
	ArrivalAt  float64
	FirstToken float64 // completion time of the prefill (first token)
	FinishedAt float64
	PromptLen  int
	OutputLen  int
	// Tenant is the traffic class of multi-tenant workloads ("" for
	// single-tenant traces); see workload.Request.Tenant.
	Tenant string
	// Evicted marks requests whose processing was restarted at least once.
	Evicted bool
	// Dropped marks requests the system gave up on — rejected by admission
	// control or unservable within capacity. A dropped record carries no
	// meaningful latency (FirstToken may be zero); latency summaries skip
	// it, but it stays in the attainment/goodput denominator: dropping a
	// request is the strongest possible SLO miss, so a system must not
	// improve its attainment by shedding load. Preempted-then-requeued
	// requests are NOT dropped — they surface exactly once, as their final
	// completion record (with Evicted set).
	Dropped bool
}

// TTFT is the time-to-first-token.
func (r RequestRecord) TTFT() float64 { return r.FirstToken - r.ArrivalAt }

// TPOT is the mean time per output token after the first.
func (r RequestRecord) TPOT() float64 {
	if r.OutputLen <= 1 {
		return 0
	}
	return (r.FinishedAt - r.FirstToken) / float64(r.OutputLen-1)
}

// NormLatency is end-to-end latency divided by output length — the
// "normalized latency (s/token)" metric of Figs. 8-10.
func (r RequestRecord) NormLatency() float64 {
	if r.OutputLen <= 0 {
		return 0
	}
	return (r.FinishedAt - r.ArrivalAt) / float64(r.OutputLen)
}

// recordChunk is the slab size for recorders that did not pre-size: 256
// records × ~80 B stay under the Go allocator's 32 KB small-object
// threshold, so each chunk is an ordinary size-class allocation.
const recordChunk = 256

// Recorder accumulates request records. It is the exact measurement sink
// (see ExactRecorder): summaries are computed from the stored records, so
// they are exact at O(n) memory. slo is what Snapshot counts attainment
// against; the zero value attains everything.
//
// Storage is slab-chunked: records land in the open cur chunk, and a full
// chunk is closed onto full rather than realloc-copied — a megascale run
// never moves a record after writing it. NewRecorderCap sizes the first
// chunk to the whole expected run, collapsing the common known-length case
// to exactly one allocation.
type Recorder struct {
	full    [][]RequestRecord // closed chunks, immutable once here
	cur     []RequestRecord   // open chunk, appended in place
	n       int               // total records across full + cur
	dropped int               // incremental count of Dropped records
	slo     SLOTarget
}

// NewRecorderCap returns an empty recorder pre-sized for n records, so a
// run of known length (engines know their request count up front) fills
// one contiguous slab and never allocates again.
func NewRecorderCap(n int) *Recorder {
	if n <= 0 {
		return &Recorder{}
	}
	return &Recorder{cur: make([]RequestRecord, 0, n)}
}

// Add appends one finished request.
func (c *Recorder) Add(r RequestRecord) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]RequestRecord, 0, recordChunk)
	}
	c.cur = append(c.cur, r)
	c.n++
	if r.Dropped {
		c.dropped++
	}
}

// AddBatch appends a batch of finished requests in order — the bulk path
// engines use when one decode iteration completes several requests.
func (c *Recorder) AddBatch(recs []RequestRecord) {
	for _, r := range recs {
		c.Add(r)
	}
}

// chunks exposes the storage as a slice of chunks for iteration. The
// returned chunk list is freshly built when an open chunk exists, so
// callers may not hold it across Adds.
func (c *Recorder) chunks() [][]RequestRecord {
	if len(c.cur) == 0 {
		return c.full
	}
	return append(c.full[:len(c.full):len(c.full)], c.cur)
}

// Count reports the number of recorded requests — completed plus dropped.
func (c *Recorder) Count() int { return c.n }

// Completed reports the recorded requests that actually finished (Count
// minus dropped).
func (c *Recorder) Completed() int { return c.n - c.dropped }

// DroppedCount reports the recorded requests the system dropped.
func (c *Recorder) DroppedCount() int { return c.dropped }

// Records returns the records in insertion order as one stitched slice.
// The slice is a copy when the recorder spans multiple chunks; callers
// must not mutate it either way.
func (c *Recorder) Records() []RequestRecord {
	if c.n == 0 {
		return nil
	}
	if len(c.full) == 0 {
		return c.cur
	}
	out := make([]RequestRecord, 0, c.n)
	for _, ch := range c.chunks() {
		out = append(out, ch...)
	}
	return out
}

// Summary aggregates a metric over the records.
type Summary struct {
	Count         int
	Mean          float64
	P50, P95, P99 float64
	Min, Max      float64
}

// SummarizeValues computes order statistics of a value slice.
func SummarizeValues(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	buf := make([]float64, 2*len(vals))
	sorted := buf[:len(vals):len(vals)]
	copy(sorted, vals)
	return summarizeSorted(sorted, buf[len(vals):])
}

// summarizeSorted sorts vals in place (scratch holds at least len(vals)
// values) and computes its order statistics — the allocation-free core of
// every exact summary.
func summarizeSorted(vals, scratch []float64) Summary {
	sortFloats(vals, scratch)
	return summarizeAscending(vals)
}

// summarizeAscending computes the order statistics of an ascending slice.
// Mean sums in ascending order, so equal multisets give equal floats.
func summarizeAscending(vals []float64) Summary {
	s := Summary{Count: len(vals)}
	if len(vals) == 0 {
		return s
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	s.Mean = sum / float64(len(vals))
	s.Min = vals[0]
	s.Max = vals[len(vals)-1]
	s.P50 = Percentile(vals, 0.50)
	s.P95 = Percentile(vals, 0.95)
	s.P99 = Percentile(vals, 0.99)
	return s
}

// sortFloats sorts vals ascending in place with an LSD radix sort over
// sortKey, ping-ponging through scratch (at least len(vals) values). NaNs
// sort first, where sort.Float64s puts them. One histogram pass fills all
// eight byte-digit counts; a digit on which every key agrees is skipped,
// so narrow-range latencies pay only for the digits that vary.
func sortFloats(vals, scratch []float64) {
	n := len(vals)
	if n < 2 {
		return
	}
	var counts [8][256]int
	for _, v := range vals {
		k := sortKey(v)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := vals, scratch[:n]
	for d := range counts {
		c := &counts[d]
		shift := uint(8 * d)
		if c[byte(sortKey(src[0])>>shift)] == n {
			continue
		}
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, v := range src {
			b := byte(sortKey(v) >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &vals[0] {
		copy(vals, src)
	}
}

// sortKey maps a float64 to a uint64 whose unsigned order is the float
// order: negatives have every bit flipped, non-negatives only the sign bit.
// Every NaN maps to 0, below -Inf.
func sortKey(v float64) uint64 {
	if v != v {
		return 0
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Percentile interpolates the p-quantile (p in [0,1]) of an ascending
// slice using the nearest-rank-with-interpolation convention. An empty
// input has no quantiles; Percentile returns 0 for it (not NaN), so
// downstream tables render an honest zero instead of "NaN" cells.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Series is a time-indexed sequence of samples.
type Series struct {
	Name   string
	Times  []float64
	Values []float64
}

// Append adds one sample.
func (s *Series) Append(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len reports the sample count.
func (s *Series) Len() int { return len(s.Times) }

// MaxValue returns the largest sample (0 for an empty series).
func (s *Series) MaxValue() float64 {
	max := 0.0
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// At returns the last sample value at or before time t (0 before the first
// sample).
func (s *Series) At(t float64) float64 {
	idx := sort.SearchFloat64s(s.Times, t)
	// idx is the first sample > t-epsilon; step back unless exact match.
	if idx < len(s.Times) && s.Times[idx] == t {
		return s.Values[idx]
	}
	if idx == 0 {
		return 0
	}
	return s.Values[idx-1]
}

// Table renders experiment output as an aligned text table. Rows store
// float cells at full round-trip precision (strconv 'g' with precision -1),
// which is what CSV emits; String prettifies them back to 4 significant
// digits for human reading. Storing full precision is deliberate: golden
// files diff the CSV, and a lossy %.4g cell would let small metric drift
// hide inside an unchanged rendering.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row; values are rendered with %v, floats at
// full round-trip precision.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', -1, 64)
		case float32:
			row[i] = strconv.FormatFloat(float64(v), 'g', -1, 32)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// prettyCell rounds stored full-precision float cells to 4 significant
// digits for the aligned rendering. Only cells that carry a float marker
// ('.', exponent, NaN/Inf) are touched: integers and plain strings pass
// through verbatim, so "200" (a count) stays "200" while
// "0.27749999999999997" becomes "0.2775".
func prettyCell(cell string) string {
	if !strings.ContainsAny(cell, ".eE") && !strings.ContainsAny(cell, "NI") {
		return cell
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return cell
	}
	return formatFloat(v)
}

// CSV renders the table as RFC 4180 comma-separated values with a header
// line.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(t.Header)
	w.WriteAll(t.Rows)
	w.Flush()
	return b.String()
}

// String renders the table with aligned columns, float cells rounded to 4
// significant digits (CSV keeps full precision).
func (t *Table) String() string {
	pretty := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		pretty[r] = make([]string, len(row))
		for i, cell := range row {
			pretty[r][i] = prettyCell(cell)
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range pretty {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range pretty {
		writeRow(row)
	}
	return b.String()
}
