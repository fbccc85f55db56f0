package metrics

import (
	"math/rand"
	"testing"
)

// benchRecords builds a deterministic 10k-record set for the summary
// benchmarks.
func benchRecords() *Recorder {
	rng := rand.New(rand.NewSource(42))
	rec := NewRecorder()
	for i := 0; i < 10000; i++ {
		ttft := 0.05 + rng.ExpFloat64()*0.2
		rec.Add(RequestRecord{
			ID:         int64(i),
			FirstToken: ttft,
			FinishedAt: ttft + rng.Float64()*4,
			PromptLen:  300,
			OutputLen:  1 + rng.Intn(256),
		})
	}
	return rec
}

// BenchmarkSummarize3x is three independent summary calls, each walking
// the records and copying the values.
func BenchmarkSummarize3x(b *testing.B) {
	rec := benchRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rec.TTFTSummary()
		_ = rec.TPOTSummary()
		_ = rec.NormLatencySummary()
	}
}

// BenchmarkSummariesBulk is the bulk path: one record walk, one
// allocation, in-place sorts.
func BenchmarkSummariesBulk(b *testing.B) {
	rec := benchRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = rec.Summaries()
	}
}

// BenchmarkStreamingObserve measures the per-record cost of the streaming
// sink's hot path (three sketch inserts plus the SLO check) — the number
// multiplied by a million on megascale traces.
func BenchmarkStreamingObserve(b *testing.B) {
	sink := NewStreamingSink(SLOTarget{TTFT: 1.5, TPOT: 0.1})
	rng := rand.New(rand.NewSource(42))
	recs := make([]RequestRecord, 4096)
	for i := range recs {
		ttft := 0.05 + rng.ExpFloat64()*0.2
		recs[i] = RequestRecord{
			ID: int64(i), FirstToken: ttft, FinishedAt: ttft + rng.Float64()*4, OutputLen: 1 + rng.Intn(256),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Observe(recs[i%len(recs)])
	}
}

// BenchmarkRecorderAppend1M appends one million request records per op
// through the slab-chunked recorder — the exact-sink cost the engines pay
// per completion at megascale.
func BenchmarkRecorderAppend1M(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := NewRecorder()
		for k := 0; k < 1_000_000; k++ {
			rec.Add(RequestRecord{ID: int64(k), FirstToken: 0.05, FinishedAt: 0.5, PromptLen: 300, OutputLen: 64})
		}
		if rec.Count() != 1_000_000 {
			b.Fatalf("recorder append kept %d of 1000000 records", rec.Count())
		}
	}
}
