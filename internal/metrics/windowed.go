// Windowed time series: the streaming counterpart of replaying a stored
// trace into per-interval plots. Completions land in fixed-width time
// buckets as they are observed, so the dynamic-behaviour views (diurnal
// waves, flash-crowd spikes) come out of a million-request run without the
// run ever holding a per-request record.

package metrics

import "math"

// WindowStat is one time bucket of a WindowedSeries.
type WindowStat struct {
	// Start is the bucket's left edge in simulated seconds; the bucket
	// covers [Start, Start+window).
	Start float64
	// Completions counts requests finished in the window; Attained those
	// meeting the series' SLO; Dropped the requests shed in the window
	// (excluded from Completions and the latency sketches, but part of the
	// window's attainment denominator — see Attainment).
	Completions int
	Attained    int
	Dropped     int
	// Goodput is attained completions per second of window.
	Goodput float64
	// TTFTP95 is the window's p95 time-to-first-token (sketch-estimated);
	// NormLatP95 the window's p95 normalized latency.
	TTFTP95    float64
	NormLatP95 float64
}

// Attainment is the window's attained fraction of completed + dropped
// requests (0 for an empty window).
func (st WindowStat) Attainment() float64 {
	if st.Completions+st.Dropped == 0 {
		return 0
	}
	return float64(st.Attained) / float64(st.Completions+st.Dropped)
}

// WindowedSeries buckets completions into fixed-width time windows keyed
// by finish time, tracking per-window completions, SLO goodput, and p95
// latencies. Memory is O(horizon/window) — bounded by simulated time, not
// trace length. Records are expected in nondecreasing finish order (the
// event loop is monotonic); a late straggler's window is clamped to the
// open one.
//
// Every window keeps its sketch accumulators, so whole series merge
// window by window (see MergeSink) — per-window p95 could not be
// recovered from finalized floats — and Open reads the latest window
// without rendering the rest.
//
// WindowedSeries is a series producer, not an aggregate summarizer: its
// Snapshot carries exact whole-run counts and attainment but zero latency
// summaries (no per-record aggregate sketches are paid for). Compose it
// behind a StreamingSink via Tee when the run also needs whole-run
// percentiles — which is exactly what the scenario streaming pipeline
// does.
type WindowedSeries struct {
	window   float64
	slo      SLOTarget
	count    int
	dropped  int
	attained int

	// accums holds one accumulator per window from the first observed
	// (index first) to the open one, the last; a window nothing landed in
	// is nil.
	first  int
	accums []*windowAccum
}

// windowAccum is one bucket's running counts and sketches.
type windowAccum struct {
	completions int
	attained    int
	dropped     int
	ttft        *QuantileSketch
	norm        *QuantileSketch
}

func newWindowAccum() *windowAccum {
	return &windowAccum{ttft: newQuantileSketch(0), norm: newQuantileSketch(0)}
}

// NewWindowedSeries returns an empty series with the given bucket width in
// simulated seconds (width <= 0 takes 1s) and SLO.
func NewWindowedSeries(window float64, slo SLOTarget) *WindowedSeries {
	if window <= 0 {
		window = 1
	}
	return &WindowedSeries{window: window, slo: slo}
}

// Observe implements Sink. Dropped records land in the bucket of their
// FinishedAt (the drop time) as Dropped counts: they widen the window's
// attainment denominator without touching completions or latency sketches.
func (w *WindowedSeries) Observe(r RequestRecord) {
	dropped := r.Dropped
	attained := !dropped && w.slo.Attained(r)
	if dropped {
		w.dropped++
	} else {
		w.count++
	}
	if attained {
		w.attained++
	}
	idx := int(math.Floor(r.FinishedAt / w.window))
	if idx < 0 {
		idx = 0
	}
	if len(w.accums) == 0 {
		w.first = idx
	}
	idx = max(idx, w.first+len(w.accums)-1) // the straggler clamp
	w.extend(idx)
	a := w.accum(idx)
	if dropped {
		a.dropped++
		return
	}
	a.completions++
	if attained {
		a.attained++
	}
	a.ttft.Observe(r.TTFT())
	a.norm.Observe(r.NormLatency())
}

// extend grows the series through window idx, leaving the windows it
// adds empty.
func (w *WindowedSeries) extend(idx int) {
	for w.first+len(w.accums) <= idx {
		w.accums = append(w.accums, nil)
	}
}

// accum returns window idx's accumulator, creating it on first use; idx
// must lie within the series.
func (w *WindowedSeries) accum(idx int) *windowAccum {
	a := w.accums[idx-w.first]
	if a == nil {
		a = newWindowAccum()
		w.accums[idx-w.first] = a
	}
	return a
}

// finalize renders window idx; a nil accumulator is an empty window.
func (w *WindowedSeries) finalize(idx int, a *windowAccum) WindowStat {
	st := WindowStat{Start: float64(idx) * w.window}
	if a == nil {
		return st
	}
	st.Completions = a.completions
	st.Attained = a.attained
	st.Dropped = a.dropped
	st.Goodput = float64(a.attained) / w.window
	if a.completions > 0 {
		st.TTFTP95 = a.ttft.Quantile(0.95)
		st.NormLatP95 = a.norm.Quantile(0.95)
	}
	return st
}

// Snapshot implements Sink: exact whole-run count and attainment, zero
// latency summaries (see the type comment — pair with a StreamingSink for
// those).
func (w *WindowedSeries) Snapshot() Snapshot {
	return Snapshot{Count: w.count, Dropped: w.dropped, Attained: w.attained}
}

// Windows returns the contiguous bucket series including the open bucket;
// the receiver stays usable for further Observe calls.
func (w *WindowedSeries) Windows() []WindowStat {
	if len(w.accums) == 0 {
		return nil
	}
	out := make([]WindowStat, len(w.accums))
	for i, a := range w.accums {
		out[i] = w.finalize(w.first+i, a)
	}
	return out
}

// Open returns the open (latest) window — the last element of Windows —
// at a cost independent of the series length; ok is false before the
// first observation.
func (w *WindowedSeries) Open() (st WindowStat, ok bool) {
	n := len(w.accums)
	if n == 0 {
		return WindowStat{}, false
	}
	return w.finalize(w.first+n-1, w.accums[n-1]), true
}

// WindowsHeader is the column layout of Table renderings of a series.
var WindowsHeader = []string{
	"Start(s)", "Completions", "Goodput(req/s)", "Attain(%)", "TTFT-p95(s)", "NormLat-p95(s/tok)",
}

// Table renders the series for CLI output.
func (w *WindowedSeries) Table() *Table {
	tab := &Table{Header: WindowsHeader}
	for _, st := range w.Windows() {
		tab.AddRow(st.Start, st.Completions, st.Goodput, 100*st.Attainment(), st.TTFTP95, st.NormLatP95)
	}
	return tab
}
