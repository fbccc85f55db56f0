package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mergeRecords builds a deterministic record stream for merge testing.
func mergeRecords(seed int64, n int, tenant []string) []RequestRecord {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]RequestRecord, n)
	at := 0.0
	for i := range recs {
		at += rng.ExpFloat64() * 0.05
		first := at + 0.01 + rng.Float64()*0.4
		out := 1 + rng.Intn(300)
		recs[i] = RequestRecord{
			ID:         int64(seed)<<32 | int64(i),
			ArrivalAt:  at,
			FirstToken: first,
			FinishedAt: first + float64(out)*0.02*(0.5+rng.Float64()),
			PromptLen:  1 + rng.Intn(1000),
			OutputLen:  out,
			Tenant:     tenant[rng.Intn(len(tenant))],
			Dropped:    rng.Intn(20) == 0,
		}
	}
	return recs
}

// The defining property of every merge: a merged sink is indistinguishable
// from one sink that observed both streams back to back.
func TestSketchMergeLossless(t *testing.T) {
	a, b, whole := newQuantileSketch(0), newQuantileSketch(0), newQuantileSketch(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := rng.ExpFloat64()
		a.Observe(v)
		whole.Observe(v)
	}
	for i := 0; i < 3000; i++ {
		v := rng.Float64() * 100
		b.Observe(v)
		whole.Observe(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), whole.Count())
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if got, want := a.Quantile(p), whole.Quantile(p); got != want {
			t.Fatalf("p%.0f: merged %g, whole-stream %g — DDSketch merge should be exact", 100*p, got, want)
		}
	}
}

func TestSketchMergeAlphaMismatch(t *testing.T) {
	a, b := newQuantileSketch(0.0025), newQuantileSketch(0.01)
	b.Observe(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging sketches with different alphas should fail")
	}
	// An empty other is a no-op regardless of alpha.
	if err := a.Merge(newQuantileSketch(0.01)); err != nil {
		t.Fatalf("merging an empty sketch: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merging nil sketch: %v", err)
	}
}

func TestStreamingSinkMerge(t *testing.T) {
	slo := SLOTarget{TTFT: 0.3, TPOT: 0.05}
	sa, sb, whole := NewStreamingSink(slo), NewStreamingSink(slo), NewStreamingSink(slo)
	ra := mergeRecords(1, 4000, []string{""})
	rb := mergeRecords(2, 2500, []string{""})
	for _, r := range ra {
		sa.Observe(r)
		whole.Observe(r)
	}
	for _, r := range rb {
		sb.Observe(r)
		whole.Observe(r)
	}
	if err := sa.MergeSink(sb); err != nil {
		t.Fatal(err)
	}
	wantSnapshot(t, "streaming", sa.Snapshot(), whole.Snapshot())

	if err := sa.MergeSink(NewStreamingSink(SLOTarget{TTFT: 9})); err == nil {
		t.Fatal("merging different SLOs should fail")
	}
	if err := sa.MergeSink(NewExactRecorder(SLOTarget{})); err == nil {
		t.Fatal("merging a Recorder into a StreamingSink should fail")
	}
}

func TestRecorderMergeConcatenatesInOrder(t *testing.T) {
	ra := mergeRecords(3, 700, []string{""}) // crosses chunk boundaries
	rb := mergeRecords(4, 300, []string{""})
	a, b := NewExactRecorder(SLOTarget{}), NewRecorderCap(len(rb))
	a.AddBatch(ra)
	b.AddBatch(rb)
	if err := a.MergeSink(b); err != nil {
		t.Fatal(err)
	}
	want := append(append([]RequestRecord(nil), ra...), rb...)
	if !reflect.DeepEqual(a.Records(), want) {
		t.Fatal("merged recorder does not hold a's records followed by b's")
	}
	if a.Count() != len(want) {
		t.Fatalf("merged count %d, want %d", a.Count(), len(want))
	}
	wantDropped := 0
	for _, r := range want {
		if r.Dropped {
			wantDropped++
		}
	}
	if a.DroppedCount() != wantDropped {
		t.Fatalf("merged dropped %d, want %d", a.DroppedCount(), wantDropped)
	}
	if err := a.MergeSink(NewStreamingSink(SLOTarget{})); err == nil {
		t.Fatal("merging a StreamingSink into a Recorder should fail")
	}
}

func TestWindowedSeriesMerge(t *testing.T) {
	slo := SLOTarget{TTFT: 0.3}
	ra := mergeRecords(6, 2000, []string{""})
	rb := mergeRecords(7, 1500, []string{""})
	// a starts several windows after b, so the merge also widens the
	// receiver's series backwards.
	for i := range ra {
		ra[i].FirstToken += 10
		ra[i].FinishedAt += 10
	}
	sortByFinish(ra)
	sortByFinish(rb)
	a, b := NewWindowedSeries(2, slo), NewWindowedSeries(2, slo)
	whole := NewWindowedSeries(2, slo)
	for _, r := range ra {
		a.Observe(r)
	}
	for _, r := range rb {
		b.Observe(r)
	}
	merged := append(append([]RequestRecord(nil), ra...), rb...)
	sortByFinish(merged)
	for _, r := range merged {
		whole.Observe(r)
	}
	if err := a.MergeSink(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Windows(), whole.Windows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged windows diverge from whole-stream windows:\n%v\nvs\n%v", got, want)
	}

	if got, want := a.Snapshot(), whole.Snapshot(); got != want {
		t.Fatalf("merged snapshot %+v, whole-stream %+v", got, want)
	}

	if err := a.MergeSink(NewWindowedSeries(3, slo)); err == nil {
		t.Fatal("merging different window widths should fail")
	}
	if err := a.MergeSink(NewWindowedSeries(2, SLOTarget{})); err == nil {
		t.Fatal("merging different SLOs should fail")
	}
	if err := a.MergeSink(NewStreamingSink(slo)); err == nil {
		t.Fatal("merging a StreamingSink into a WindowedSeries should fail")
	}
}

// TestTenantPipelineMerge merges the scenario layer's tenant pipeline — an
// aggregate sink teed with a per-tenant KeyedMux — where one side never
// saw one of the tenants.
func TestTenantPipelineMerge(t *testing.T) {
	slo := SLOTarget{TTFT: 0.3}
	type pipeline struct {
		tee *Tee
		mux *KeyedMux
	}
	mk := func() pipeline {
		mux := NewKeyedMux(func(r RequestRecord) string { return r.Tenant }, func(string) Sink { return NewStreamingSink(slo) })
		return pipeline{tee: NewTee(NewStreamingSink(slo), mux), mux: mux}
	}
	tenants := []string{"chat", "code", "batch"}
	ra := mergeRecords(8, 2000, tenants[:2]) // a never sees "batch"
	rb := mergeRecords(9, 2000, tenants)
	a, b, whole := mk(), mk(), mk()
	for _, r := range ra {
		a.tee.Observe(r)
		whole.tee.Observe(r)
	}
	for _, r := range rb {
		b.tee.Observe(r)
		whole.tee.Observe(r)
	}
	if err := MergeSinks(a.tee, b.tee); err != nil {
		t.Fatal(err)
	}
	if got, want := a.mux.Keys(), whole.mux.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged tenants %v, want %v", got, want)
	}
	wantSnapshot(t, "aggregate", a.tee.Snapshot(), whole.tee.Snapshot())
	for _, tn := range whole.mux.Keys() {
		wantSnapshot(t, "tenant "+tn, a.mux.Key(tn).Snapshot(), whole.mux.Key(tn).Snapshot())
	}
}

func TestKeyedMuxAndTeeMerge(t *testing.T) {
	slo := SLOTarget{TTFT: 0.3}
	key := func(r RequestRecord) string {
		if r.OutputLen >= 100 {
			return "long"
		}
		return "short"
	}
	mk := func() Sink {
		return NewTee(
			NewStreamingSink(slo),
			NewKeyedMux(key, func(string) Sink { return NewStreamingSink(slo) }),
		)
	}
	a, b, whole := mk(), mk(), mk()
	for _, r := range mergeRecords(10, 1500, []string{""}) {
		a.Observe(r)
		whole.Observe(r)
	}
	for _, r := range mergeRecords(11, 1500, []string{""}) {
		b.Observe(r)
		whole.Observe(r)
	}
	if err := MergeSinks(a, b); err != nil {
		t.Fatal(err)
	}
	wantSnapshot(t, "tee", a.Snapshot(), whole.Snapshot())

	short := NewTee(NewStreamingSink(slo))
	if err := mergeInto(a, short); err == nil {
		t.Fatal("merging tees with different fan-out should fail")
	}
	if err := MergeSinks(struct{ Sink }{NewStreamingSink(slo)}); err == nil {
		t.Fatal("MergeSinks on a non-mergeable dst should fail")
	}
}

func sortByFinish(recs []RequestRecord) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].FinishedAt < recs[j].FinishedAt })
}

// wantSnapshot checks a merged snapshot against the whole-stream one.
// Counts, extrema and sketch quantiles must match exactly; Mean may differ
// in the last ULPs because merging adds per-sink partial sums where the
// whole-stream sink added record by record, and float addition is not
// associative. (This does not weaken the determinism contract — a merge in
// fixed shard order is itself bit-reproducible — it only means "merged"
// and "one big stream" are equal up to summation order.)
func wantSnapshot(t *testing.T, label string, got, want Snapshot) {
	t.Helper()
	approx := func(s Summary) Summary { s.Mean = 0; return s }
	gotEx := got
	wantEx := want
	gotEx.TTFT, gotEx.TPOT, gotEx.NormLat = approx(got.TTFT), approx(got.TPOT), approx(got.NormLat)
	wantEx.TTFT, wantEx.TPOT, wantEx.NormLat = approx(want.TTFT), approx(want.TPOT), approx(want.NormLat)
	if !reflect.DeepEqual(gotEx, wantEx) {
		t.Fatalf("%s: merged snapshot %+v\nwhole-stream %+v", label, got, want)
	}
	for _, pair := range [][2]Summary{{got.TTFT, want.TTFT}, {got.TPOT, want.TPOT}, {got.NormLat, want.NormLat}} {
		g, w := pair[0].Mean, pair[1].Mean
		if diff := math.Abs(g - w); diff > 1e-9*math.Max(math.Abs(w), 1) {
			t.Fatalf("%s: merged mean %g vs whole-stream %g", label, g, w)
		}
	}
}
