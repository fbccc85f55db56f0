package metrics

import (
	"encoding/csv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// adversarialDists are value streams chosen to break rank-error quantile
// sketches: bimodal (quantiles near a density gap), heavy-tailed (p99 far
// from the mass), and constant (zero spread). The mode weights keep the
// tested quantiles (p50/p95/p99) inside a mode, where "within 1% of the
// exact value" is well-defined; a quantile placed exactly on a bimodal
// boundary has no meaningful relative-error target for any estimator.
var adversarialDists = []struct {
	name string
	gen  func(rng *rand.Rand) float64
}{
	{"bimodal", func(rng *rand.Rand) float64 {
		// 40% fast mode around 10ms, 60% slow mode around 1s: p50, p95 and
		// p99 all land inside the slow mode.
		if rng.Float64() < 0.4 {
			return 0.010 * (1 + 0.05*rng.Float64())
		}
		return 1.0 * (1 + 0.2*rng.Float64())
	}},
	{"heavytail", func(rng *rand.Rand) float64 {
		// Pareto(alpha=2) scaled to ~50ms median.
		return 0.05 / math.Sqrt(1-rng.Float64())
	}},
	{"lognormal", func(rng *rand.Rand) float64 {
		return 0.2 * math.Exp(0.8*rng.NormFloat64())
	}},
	{"constant", func(rng *rand.Rand) float64 { return 0.125 }},
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestStreamingSinkAccuracy is the sketch-accuracy property test: on every
// adversarial distribution, the streaming percentiles must land within 1%
// relative error of the exact SummarizeValues result, and the running
// mean/min/max/count must match exactly.
func TestStreamingSinkAccuracy(t *testing.T) {
	const n = 20000
	for _, dist := range adversarialDists {
		t.Run(dist.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			exact := NewExactRecorder(SLOTarget{})
			stream := NewStreamingSink(SLOTarget{})
			for i := 0; i < n; i++ {
				ttft := dist.gen(rng)
				tpot := dist.gen(rng)
				const out = 11
				rec := RequestRecord{
					ID:         int64(i),
					ArrivalAt:  0,
					FirstToken: ttft,
					FinishedAt: ttft + float64(out-1)*tpot,
					OutputLen:  out,
				}
				exact.Observe(rec)
				stream.Observe(rec)
			}
			want := exact.Snapshot()
			got := stream.Snapshot()
			if got.Count != want.Count || got.Attained != want.Attained {
				t.Fatalf("counts: got (%d, %d), want (%d, %d)", got.Count, got.Attained, want.Count, want.Attained)
			}
			check := func(metric string, g, w Summary) {
				t.Helper()
				if g.Count != w.Count || g.Min != w.Min || g.Max != w.Max {
					t.Errorf("%s running stats diverged: got %+v want %+v", metric, g, w)
				}
				// The streaming mean sums in arrival order, the exact mean
				// over sorted values; only float association separates them.
				if relErr(g.Mean, w.Mean) > 1e-9 {
					t.Errorf("%s mean: streaming %g vs exact %g", metric, g.Mean, w.Mean)
				}
				for _, q := range []struct {
					name      string
					got, want float64
				}{{"p50", g.P50, w.P50}, {"p95", g.P95, w.P95}, {"p99", g.P99, w.P99}} {
					if e := relErr(q.got, q.want); e > 0.01 {
						t.Errorf("%s %s: streaming %.6g vs exact %.6g (rel err %.3f%% > 1%%)",
							metric, q.name, q.got, q.want, 100*e)
					}
				}
			}
			check("TTFT", got.TTFT, want.TTFT)
			check("TPOT", got.TPOT, want.TPOT)
			check("NormLat", got.NormLat, want.NormLat)
		})
	}
}

// TestSketchMemoryBound pins the O(1)-memory claim at the sketch level:
// the bucket count is a function of the data's dynamic range, so growing
// the stream 10x must not grow the bucket count.
func TestSketchMemoryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := newQuantileSketch(0)
	gen := func() float64 { return 0.05 * math.Exp(1.2*rng.NormFloat64()) }
	for i := 0; i < 10000; i++ {
		q.Observe(gen())
	}
	at10k := q.Buckets()
	for i := 0; i < 90000; i++ {
		q.Observe(gen())
	}
	at100k := q.Buckets()
	// The range widens slightly with more extreme draws; allow that, but
	// nothing close to linear growth.
	if at100k > at10k+at10k/2 {
		t.Fatalf("bucket count grew with stream length: %d at 10k -> %d at 100k", at10k, at100k)
	}
	if at100k > 8000 {
		t.Fatalf("bucket count %d exceeds the dynamic-range bound", at100k)
	}

	// The dense store spans only the keys between the smallest and the
	// largest value observed: one cell for a constant stream, and no more
	// than the ≈5.5k-cell key span of 1e-9..1e3 however the range fills.
	constant := newQuantileSketch(0)
	for i := 0; i < 1000; i++ {
		constant.Observe(0.25)
	}
	if n := len(constant.counts); n != 1 {
		t.Fatalf("constant stream holds %d cells, want 1", n)
	}
	wide := newQuantileSketch(0)
	for i := 0; i < 100000; i++ {
		wide.Observe(math.Pow(10, -9+12*rng.Float64()))
	}
	wide.Observe(1.0000001e-9)
	wide.Observe(1e3)
	if n := len(wide.counts); n > 5600 {
		t.Fatalf("1e-9..1e3 stream holds %d cells, want at most 5600", n)
	}
}

// TestKeyedMuxMatchesExactSplit checks that fanning records through a Tee
// of an aggregate exact recorder and a per-tenant KeyedMux of exact
// recorders reproduces the per-tenant Recorder.Breakdown: identical
// per-tenant counts, attainment, and summaries, and an aggregate equal to
// the whole-trace snapshot.
func TestKeyedMuxMatchesExactSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	slo := SLOTarget{TTFT: 0.2, TPOT: 0.05}
	tenants := []string{"chat", "code", "batch"}

	all := NewExactRecorder(slo)
	mux := NewKeyedMux(func(r RequestRecord) string { return r.Tenant }, func(string) Sink { return NewExactRecorder(slo) })
	tee := NewTee(NewExactRecorder(slo), mux)
	for i := 0; i < 5000; i++ {
		ttft := 0.05 * math.Exp(rng.NormFloat64())
		tpot := 0.02 * math.Exp(0.5*rng.NormFloat64())
		rec := RequestRecord{
			ID:         int64(i),
			FirstToken: ttft,
			FinishedAt: ttft + 9*tpot,
			OutputLen:  10,
			Tenant:     tenants[rng.Intn(len(tenants))],
		}
		all.Observe(rec)
		tee.Observe(rec)
	}
	const horizon = 120.0

	if got, want := tee.Snapshot(), all.Snapshot(); got != want {
		t.Fatalf("aggregate snapshot diverged:\n got %+v\nwant %+v", got, want)
	}
	_, perTenant := all.Breakdown(slo, horizon, sameGroup)
	if got, want := mux.Keys(), len(perTenant); len(got) != want {
		t.Fatalf("tenant sets diverged: mux %v vs exact %d tenants", got, want)
	}
	total := 0
	for _, ts := range perTenant {
		sub := mux.Key(ts.Tenant)
		if sub == nil {
			t.Fatalf("mux never saw tenant %q", ts.Tenant)
		}
		snap := sub.Snapshot()
		total += snap.Count
		if snap.Count != ts.Count {
			t.Errorf("tenant %s: mux count %d, exact %d", ts.Tenant, snap.Count, ts.Count)
		}
		if snap.Attainment() != ts.Attainment {
			t.Errorf("tenant %s: mux attainment %g, exact %g", ts.Tenant, snap.Attainment(), ts.Attainment)
		}
		if snap.Goodput(horizon) != ts.Goodput {
			t.Errorf("tenant %s: mux goodput %g, exact %g", ts.Tenant, snap.Goodput(horizon), ts.Goodput)
		}
		if snap.TTFT != ts.TTFT || snap.TPOT != ts.TPOT || snap.NormLat != ts.NormLat {
			t.Errorf("tenant %s: mux summaries diverged from Breakdown", ts.Tenant)
		}
	}
	if total != all.Count() {
		t.Errorf("per-tenant counts sum to %d, want %d", total, all.Count())
	}
}

// TestSummariesBulkMatchesPerMetric pins the exact Snapshot's bulk
// summaries float for float against summarizing each metric's extracted
// values on its own.
func TestSummariesBulkMatchesPerMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rec := NewExactRecorder(SLOTarget{})
	for i := 0; i < 3000; i++ {
		ttft := rng.ExpFloat64() * 0.1
		rec.Add(RequestRecord{
			FirstToken: ttft,
			FinishedAt: ttft + rng.Float64(),
			OutputLen:  1 + rng.Intn(50),
		})
	}
	snap := rec.Snapshot()
	if want := summarizeMetric(rec, RequestRecord.TTFT); snap.TTFT != want {
		t.Errorf("bulk TTFT %+v != per-metric %+v", snap.TTFT, want)
	}
	if want := summarizeMetric(rec, RequestRecord.TPOT); snap.TPOT != want {
		t.Errorf("bulk TPOT %+v != per-metric %+v", snap.TPOT, want)
	}
	if want := summarizeMetric(rec, RequestRecord.NormLatency); snap.NormLat != want {
		t.Errorf("bulk NormLat %+v != per-metric %+v", snap.NormLat, want)
	}

	var empty Recorder
	if e := empty.Snapshot(); e.TTFT != (Summary{}) || e.TPOT != (Summary{}) || e.NormLat != (Summary{}) {
		t.Errorf("empty recorder bulk summaries not zero: %+v", e)
	}
}

// summarizeMetric is the per-metric oracle for the exact summaries:
// SummarizeValues over f of every completed record, in insertion order.
func summarizeMetric(c *Recorder, f func(RequestRecord) float64) Summary {
	var vals []float64
	for _, r := range c.Records() {
		if !r.Dropped {
			vals = append(vals, f(r))
		}
	}
	return SummarizeValues(vals)
}

// TestWindowedSeries covers bucketing, gap filling, and goodput math.
func TestWindowedSeries(t *testing.T) {
	slo := SLOTarget{TTFT: 0.5}
	w := NewWindowedSeries(10, slo)
	add := func(finish, ttft float64) {
		w.Observe(RequestRecord{FirstToken: ttft, FinishedAt: finish, OutputLen: 1})
	}
	add(1, 0.1)  // window 0, attained
	add(9, 0.9)  // window 0, missed
	add(12, 0.2) // window 1, attained
	// windows 2-3 empty
	add(45, 0.1) // window 4, attained

	ws := w.Windows()
	if len(ws) != 5 {
		t.Fatalf("got %d windows, want 5 (contiguous through the gap)", len(ws))
	}
	if ws[0].Completions != 2 || ws[0].Attained != 1 {
		t.Errorf("window 0: %+v, want 2 completions / 1 attained", ws[0])
	}
	if ws[0].Goodput != 0.1 {
		t.Errorf("window 0 goodput %g, want 0.1 (1 attained / 10 s)", ws[0].Goodput)
	}
	for i := 2; i <= 3; i++ {
		if ws[i].Completions != 0 || ws[i].Goodput != 0 {
			t.Errorf("gap window %d not empty: %+v", i, ws[i])
		}
		if ws[i].Start != float64(10*i) {
			t.Errorf("gap window %d start %g, want %d", i, ws[i].Start, 10*i)
		}
	}
	if ws[4].Completions != 1 || ws[4].Start != 40 {
		t.Errorf("window 4: %+v", ws[4])
	}
	if snap := w.Snapshot(); snap.Count != 4 || snap.Attained != 3 {
		t.Errorf("aggregate snapshot %+v, want 4 observed / 3 attained", snap)
	}
	if tab := w.Table(); len(tab.Rows) != 5 {
		t.Errorf("series table has %d rows, want 5", len(tab.Rows))
	}
	// Windows() must not consume the open bucket.
	add(46, 0.1)
	if ws := w.Windows(); ws[4].Completions != 2 {
		t.Errorf("open window lost state after Windows(): %+v", ws[4])
	}
}

// TestWindowedSeriesOpen checks the open-window accessor against the
// rendered series after every observation, across empty gap windows,
// stragglers behind the open window and dropped records.
func TestWindowedSeriesOpen(t *testing.T) {
	w := NewWindowedSeries(2, SLOTarget{TTFT: 0.3})
	if _, ok := w.Open(); ok {
		t.Fatal("empty series reports an open window")
	}
	recs := mergeRecords(12, 400, []string{""})
	sortByFinish(recs)
	for i := range recs {
		switch {
		case i == 150:
			// Jump several windows ahead, leaving empty gap windows.
			for j := i; j < len(recs); j++ {
				recs[j].FinishedAt += 25
			}
		case i%37 == 0 && i > 0:
			// A straggler finishing windows before the open one.
			recs[i].FinishedAt -= 5
		}
	}
	for i, r := range recs {
		w.Observe(r)
		ws := w.Windows()
		open, ok := w.Open()
		if !ok || open != ws[len(ws)-1] {
			t.Fatalf("after record %d: Open() = %+v, %v; last window %+v", i, open, ok, ws[len(ws)-1])
		}
	}
}

// TestTeeFansOut checks every sink sees every record and Snapshot follows
// the primary.
func TestTeeFansOut(t *testing.T) {
	a := NewStreamingSink(SLOTarget{})
	b := NewExactRecorder(SLOTarget{})
	tee := NewTee(a, b)
	for i := 0; i < 10; i++ {
		tee.Observe(RequestRecord{FirstToken: 0.1, FinishedAt: 0.2, OutputLen: 2})
	}
	if a.Snapshot().Count != 10 || b.Count() != 10 {
		t.Fatalf("tee dropped records: %d / %d", a.Snapshot().Count, b.Count())
	}
	if tee.Snapshot() != a.Snapshot() {
		t.Errorf("tee snapshot does not follow the primary sink")
	}
}

// TestTableCSVRoundTrip guards the CSV/String split: CSV cells must parse
// back to exactly the floats that went in, so a renderer change can never
// silently reintroduce lossy %.4g cells into the golden-diffed output.
func TestTableCSVRoundTrip(t *testing.T) {
	vals := []float64{
		0.27749999999999997, 1e-17, math.Pi, 2.0 / 3.0,
		1234567.891011, 4.48, math.MaxFloat64, 5e-324, 0, -0.1,
	}
	tab := &Table{Header: []string{"Name", "Val", "Count"}}
	for i, v := range vals {
		tab.AddRow("row", v, i)
	}
	r := csv.NewReader(strings.NewReader(tab.CSV()))
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(vals)+1 {
		t.Fatalf("CSV has %d rows, want %d", len(rows), len(vals)+1)
	}
	for i, v := range vals {
		got, err := strconv.ParseFloat(rows[i+1][1], 64)
		if err != nil {
			t.Fatalf("row %d cell %q: %v", i, rows[i+1][1], err)
		}
		if got != v {
			t.Errorf("row %d: CSV cell %q parses to %g, want exactly %g", i, rows[i+1][1], got, v)
		}
		if rows[i+1][2] != strconv.Itoa(i) {
			t.Errorf("row %d: int cell %q drifted", i, rows[i+1][2])
		}
	}
}
