package metrics

import (
	"math"
	"testing"
)

// The denominator contract for overload scenarios, pinned as a test:
// attainment and goodput divide by completed + dropped, a dropped request
// never attains (even the zero SLO), latency summaries exclude dropped
// records, and a preempted-then-requeued request appears exactly once (as
// its final completion) so preemption costs latency, not a denominator
// slot. Every sink implementation must agree on this arithmetic.

func completedRecord(id int64, ttft float64) RequestRecord {
	return RequestRecord{
		ID:         id,
		ArrivalAt:  0,
		FirstToken: ttft,
		FinishedAt: ttft + 1,
		PromptLen:  8,
		OutputLen:  4,
	}
}

func droppedRecord(id int64, at float64) RequestRecord {
	return RequestRecord{ID: id, ArrivalAt: at, FinishedAt: at, Dropped: true}
}

func TestAttainmentDenominatorIncludesDropped(t *testing.T) {
	slo := SLOTarget{TTFT: 0.5}
	rec := NewExactRecorder(slo)
	rec.Add(completedRecord(1, 0.1)) // attains
	rec.Add(completedRecord(2, 0.2)) // attains
	rec.Add(completedRecord(3, 0.9)) // misses TTFT
	rec.Add(droppedRecord(4, 1.0))   // dropped: in denominator, never attains

	if got := rec.Count(); got != 4 {
		t.Fatalf("Count() = %d, want 4 (completed + dropped)", got)
	}
	if got := rec.Completed(); got != 3 {
		t.Fatalf("Completed() = %d, want 3", got)
	}
	if got := rec.DroppedCount(); got != 1 {
		t.Fatalf("DroppedCount() = %d, want 1", got)
	}
	snap := rec.Snapshot()
	if got, want := snap.Attainment(), 2.0/4.0; got != want {
		t.Fatalf("Attainment = %v, want %v (2 attained over 3 completed + 1 dropped)", got, want)
	}
	if got, want := snap.Goodput(10), 2.0/10.0; got != want {
		t.Fatalf("Goodput = %v, want %v", got, want)
	}
}

func TestDroppedNeverAttainsZeroSLO(t *testing.T) {
	var zero SLOTarget
	if !zero.Attained(completedRecord(1, 5)) {
		t.Fatal("zero SLO must attain every completed request")
	}
	if zero.Attained(droppedRecord(2, 0)) {
		t.Fatal("a dropped request must not attain even the zero SLO")
	}
}

func TestSummariesExcludeDropped(t *testing.T) {
	rec := NewExactRecorder(SLOTarget{})
	rec.Add(completedRecord(1, 0.25))
	rec.Add(droppedRecord(2, 0)) // zero timestamps must not flatten TTFT
	rec.Add(completedRecord(3, 0.75))

	ttft := rec.Snapshot().TTFT
	if ttft.Count != 2 {
		t.Fatalf("TTFT summary count = %d, want 2 completed", ttft.Count)
	}
	if ttft.Min != 0.25 {
		t.Fatalf("TTFT min = %v; dropped record's zero leaked into the summary", ttft.Min)
	}
	if want := summarizeMetric(rec, RequestRecord.TTFT); ttft != want {
		t.Fatalf("Snapshot TTFT diverged from the per-metric oracle: %+v vs %+v", ttft, want)
	}
}

func TestSnapshotDenominators(t *testing.T) {
	slo := SLOTarget{TTFT: 0.5}
	feed := func(s Sink) {
		s.Observe(completedRecord(1, 0.1)) // attains
		s.Observe(completedRecord(2, 0.9)) // misses
		s.Observe(droppedRecord(3, 1.0))
	}
	check := func(name string, s Sink) {
		t.Helper()
		snap := s.Snapshot()
		if snap.Count != 2 {
			t.Fatalf("%s: Count = %d, want 2 completed", name, snap.Count)
		}
		if snap.Dropped != 1 {
			t.Fatalf("%s: Dropped = %d, want 1", name, snap.Dropped)
		}
		if snap.Attained != 1 {
			t.Fatalf("%s: Attained = %d, want 1", name, snap.Attained)
		}
		if got, want := snap.Attainment(), 1.0/3.0; math.Abs(got-want) > 1e-15 {
			t.Fatalf("%s: Attainment = %v, want %v", name, got, want)
		}
	}

	exact := NewExactRecorder(slo)
	feed(exact)
	check("ExactRecorder", exact)

	stream := NewStreamingSink(slo)
	feed(stream)
	check("StreamingSink", stream)
	if stream.Snapshot().TTFT.Count != 2 {
		t.Fatal("StreamingSink sketches must exclude dropped records")
	}

	win := NewWindowedSeries(1, slo)
	feed(win)
	check("WindowedSeries", win)

	mux := NewKeyedMux(
		func(r RequestRecord) string {
			if r.ID%2 == 0 {
				return "even"
			}
			return "odd"
		},
		func(string) Sink { return NewStreamingSink(slo) },
	)
	feed(mux)
	check("KeyedMux", mux)
}

func TestWindowStatDropped(t *testing.T) {
	slo := SLOTarget{TTFT: 0.5}
	w := NewWindowedSeries(1, slo)
	w.Observe(completedRecord(1, 0.1)) // finishes at 1.1 -> window 1
	w.Observe(droppedRecord(2, 1.5))   // dropped in window 1
	w.Observe(completedRecord(3, 2.0)) // finishes at 3.0 -> window 3, closes window 1

	wins := w.Windows()
	if len(wins) != 3 {
		t.Fatalf("got %d windows, want 3 (1, gap 2, 3)", len(wins))
	}
	st := wins[0]
	if st.Completions != 1 || st.Dropped != 1 || st.Attained != 1 {
		t.Fatalf("window 1 = %+v, want 1 completion, 1 dropped, 1 attained", st)
	}
	if got, want := st.Attainment(), 0.5; got != want {
		t.Fatalf("window attainment = %v, want %v (1 attained over 1+1)", got, want)
	}
}
