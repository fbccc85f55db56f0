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
		for k := 0; k < 1_000_000; k++ {
			if k%2 == 0 {
				log.Add(Event{At: float64(k) * 1e-3, Kind: KindDecode, Request: int64(k), Value: float64(k % 7)})
			} else {
				log.Addf(float64(k)*1e-3, KindFinish, int64(k), -1, 0, "done")
			}
		}
		if log.Len() != 1_000_000 {
			b.Fatalf("trace append logged %d of 1000000 events", log.Len())
		}
	}
	b.StopTimer()
}
