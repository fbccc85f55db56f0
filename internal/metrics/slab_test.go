package metrics

import (
	"math/rand"
	"reflect"
	"testing"
)

// slabRecords builds n deterministic records with a tenant mix and a
// sprinkling of drops — enough to cross several 256-record chunk
// boundaries and exercise every aggregate the recorder serves.
func slabRecords(n int) []RequestRecord {
	rng := rand.New(rand.NewSource(99))
	tenants := []string{"", "gold", "bronze"}
	recs := make([]RequestRecord, n)
	for i := range recs {
		ttft := 0.05 + rng.ExpFloat64()*0.2
		recs[i] = RequestRecord{
			ID:         int64(i),
			Tenant:     tenants[i%len(tenants)],
			FirstToken: ttft,
			FinishedAt: ttft + rng.Float64()*4,
			PromptLen:  100 + rng.Intn(400),
			OutputLen:  1 + rng.Intn(256),
			Dropped:    i%17 == 0,
		}
	}
	return recs
}

// TestRecorderChunkingMatchesFlat drives the chunked recorder across
// several chunk boundaries and checks every read path — counts, records,
// summaries, SLO aggregates, tenant fanout — against the same data held
// in a pre-sized single-slab recorder fed through the batch path.
func TestRecorderChunkingMatchesFlat(t *testing.T) {
	const n = 3*256 + 57
	recs := slabRecords(n)
	slo := SLOTarget{TTFT: 1.5, TPOT: 0.1}
	const horizon = 120.0

	chunked := NewExactRecorder(SLOTarget{})
	for _, r := range recs {
		chunked.Add(r)
	}
	flat := NewRecorderCap(n)
	flat.AddBatch(recs)

	dropped := 0
	for _, r := range recs {
		if r.Dropped {
			dropped++
		}
	}
	for name, c := range map[string]*Recorder{"chunked": chunked, "flat-cap": flat} {
		if c.Count() != n {
			t.Fatalf("%s: Count() = %d want %d", name, c.Count(), n)
		}
		if c.DroppedCount() != dropped {
			t.Fatalf("%s: DroppedCount() = %d want %d", name, c.DroppedCount(), dropped)
		}
		if c.Completed() != n-dropped {
			t.Fatalf("%s: Completed() = %d want %d", name, c.Completed(), n-dropped)
		}
		if got := c.Records(); !reflect.DeepEqual(got, recs) {
			t.Fatalf("%s: Records() diverged from the input order", name)
		}
	}

	// Every aggregate must be identical whether the records lived in one
	// slab or several chunks.
	if got, want := chunked.attained(slo), flat.attained(slo); got != want {
		t.Fatalf("attained() = %d want %d", got, want)
	}
	whole := func(string) string { return "" }
	chunkedAll, _ := chunked.Breakdown(slo, horizon, whole)
	flatAll, _ := flat.Breakdown(slo, horizon, whole)
	if got, want := chunkedAll.Attainment, flatAll.Attainment; got != want {
		t.Fatalf("Attainment = %v want %v", got, want)
	}
	if got, want := chunkedAll.Goodput, flatAll.Goodput; got != want {
		t.Fatalf("Goodput = %v want %v", got, want)
	}
	cs := chunked.Snapshot()
	for _, m := range []struct {
		name string
		got  Summary
		f    func(RequestRecord) float64
	}{
		{"TTFT", cs.TTFT, RequestRecord.TTFT},
		{"TPOT", cs.TPOT, RequestRecord.TPOT},
		{"NormLat", cs.NormLat, RequestRecord.NormLatency},
	} {
		if want := summarizeMetric(flat, m.f); m.got != want {
			t.Fatalf("chunked Snapshot %s %+v, flat per-metric %+v", m.name, m.got, want)
		}
	}
	call, cgroups := chunked.Breakdown(slo, horizon, sameGroup)
	fall, fgroups := flat.Breakdown(slo, horizon, sameGroup)
	if call != fall || !reflect.DeepEqual(cgroups, fgroups) {
		t.Fatalf("Breakdown() diverged:\n got %+v %+v\nwant %+v %+v", call, cgroups, fall, fgroups)
	}
}

// TestRecorderCapSingleSlab pins the known-length optimization: a
// NewRecorderCap recorder filled to exactly its capacity never splits
// into chunks — Records() returns one contiguous slab without copying.
func TestRecorderCapSingleSlab(t *testing.T) {
	recs := slabRecords(300) // > one 256 chunk, so the cap matters
	c := NewRecorderCap(len(recs))
	for _, r := range recs {
		c.Add(r)
	}
	got := c.Records()
	if len(got) != len(recs) {
		t.Fatalf("Records() len = %d want %d", len(got), len(recs))
	}
	if cap(got) < len(recs) {
		t.Fatalf("cap recorder split into chunks: cap %d < %d", cap(got), len(recs))
	}
}

// TestRecorderEmpty pins the zero-value edges the engines rely on.
func TestRecorderEmpty(t *testing.T) {
	c := NewExactRecorder(SLOTarget{})
	if c.Count() != 0 || c.Completed() != 0 || c.DroppedCount() != 0 {
		t.Fatalf("empty recorder has nonzero counts")
	}
	if got := c.Records(); got != nil {
		t.Fatalf("empty Records() = %v want nil", got)
	}
	c.AddBatch(nil)
	if c.Count() != 0 {
		t.Fatalf("AddBatch(nil) changed Count to %d", c.Count())
	}
}

// batchSpy records whether the batch path was taken.
type batchSpy struct {
	single int
	batch  int
	got    []RequestRecord
}

func (s *batchSpy) Observe(r RequestRecord) { s.single++; s.got = append(s.got, r) }
func (s *batchSpy) Snapshot() Snapshot      { return Snapshot{} }
func (s *batchSpy) ObserveBatch(recs []RequestRecord) {
	s.batch++
	s.got = append(s.got, recs...)
}

// singleSpy is a Sink without the batch extension.
type singleSpy struct {
	single int
	got    []RequestRecord
}

func (s *singleSpy) Observe(r RequestRecord) { s.single++; s.got = append(s.got, r) }
func (s *singleSpy) Snapshot() Snapshot      { return Snapshot{} }

// TestObserveAllBatchDispatch pins ObserveAll's contract: one batch call
// when the sink supports it, per-record Observe otherwise, identical
// records in identical order either way, and Recorder itself taking the
// batch path.
func TestObserveAllBatchDispatch(t *testing.T) {
	recs := slabRecords(10)

	bs := &batchSpy{}
	ObserveAll(bs, recs)
	if bs.batch != 1 || bs.single != 0 {
		t.Fatalf("batch sink saw batch=%d single=%d want 1/0", bs.batch, bs.single)
	}
	ss := &singleSpy{}
	ObserveAll(ss, recs)
	if ss.single != len(recs) {
		t.Fatalf("plain sink saw %d Observe calls want %d", ss.single, len(recs))
	}
	if !reflect.DeepEqual(bs.got, ss.got) {
		t.Fatalf("batch and single paths delivered different records")
	}
	ObserveAll(bs, nil)
	if bs.batch != 1 {
		t.Fatalf("empty ObserveAll still called the sink")
	}

	rec := NewExactRecorder(SLOTarget{})
	ObserveAll(rec, recs)
	if !reflect.DeepEqual(rec.Records(), recs) {
		t.Fatalf("Recorder via ObserveAll diverged from the input")
	}
}
