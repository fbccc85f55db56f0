package trace

import "testing"

// BenchmarkAppend1M appends one million events per op through the paged
// arena's Add/static-Addf hot path — the append cost of the
// exact-measurement path, fresh pages included.
func BenchmarkAppend1M(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var log Log
		appendMix(&log, 1_000_000)
		if log.Len() != 1_000_000 {
			b.Fatalf("trace append logged %d of 1000000 events", log.Len())
		}
	}
	b.StopTimer()
}

// appendMix appends n events alternating the exact path's two append
// shapes: a decode step through Add and a finish with a static note
// through Addf.
func appendMix(log *Log, n int) {
	for k := 0; k < n; k++ {
		if k%2 == 0 {
			log.Add(Event{At: float64(k) * 1e-3, Kind: KindDecode, Request: int64(k), Value: float64(k % 7)})
		} else {
			log.Addf(float64(k)*1e-3, KindFinish, int64(k), -1, 0, "done")
		}
	}
}
