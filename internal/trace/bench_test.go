package trace

import (
	"sync"
	"testing"
)

// BenchmarkAppend1M appends one million events per op through the paged
// arena's Add/static-Addf hot path, releasing the pages back to the pool
// between ops — the steady-state append cost of the exact-measurement
// path, with page reuse rather than fresh-arena growth dominating.
func BenchmarkAppend1M(b *testing.B) {
	ResetPagePool()
	defer ResetPagePool()
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
		log.Release()
	}
	b.StopTimer()
}

// BenchmarkPoolContended8 hammers the arena page pool from eight
// goroutines at once — the fleet layer's allocation pattern, where every
// shard grows and releases its own arena concurrently. Each worker
// appends 64k events (16 pages) and releases them back, per op. The
// striped free list keeps the workers on distinct stripes; a single
// global mutex would make every page grab and give-back a serialization
// point.
func BenchmarkPoolContended8(b *testing.B) {
	const workers = 8
	ResetPagePool()
	defer ResetPagePool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var log Log
				for k := 0; k < 64*1024; k++ {
					log.Add(Event{At: float64(k) * 1e-3, Kind: KindDecode, Request: int64(k)})
				}
				log.Release()
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
}
