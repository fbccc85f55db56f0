package engine

import "testing"

// BenchmarkRequeueStorm measures a preemption storm against the request
// deque: 4096 victims requeued at the head of a 4096-deep FIFO, then a
// full drain. The ring buffer makes every head insert O(1); the retired
// slice-backed queue copied the whole backing array per insert whenever
// the head sat at slot 0, turning a storm into O(n²).
func BenchmarkRequeueStorm(b *testing.B) {
	const fill, storm = 4096, 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var q queue
		reqs := make([]request, fill+storm)
		for k := 0; k < fill; k++ {
			q.push(&reqs[k])
		}
		for k := 0; k < storm; k++ {
			q.pushFront(&reqs[fill+k])
		}
		pops := 0
		for q.pop() != nil {
			pops++
		}
		if pops != fill+storm {
			b.Fatalf("queue storm drained %d of %d requests", pops, fill+storm)
		}
	}
}
