package metrics

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// feedRandom feeds recs to s through a mix of ObserveBatch calls of random
// sizes (empty, below, at and across the chunk size) and single Observes,
// scribbling over each batch buffer after the call: the Pipe must have
// copied what it keeps.
func feedRandom(s *Pipe, recs []RequestRecord, rng *rand.Rand) {
	buf := make([]RequestRecord, 0, 3*pipeChunk)
	for len(recs) > 0 {
		if rng.Intn(4) == 0 {
			s.Observe(recs[0])
			recs = recs[1:]
			continue
		}
		n := min(len(recs), []int{0, 1, 7, pipeChunk - 1, pipeChunk, pipeChunk + 1, 2*pipeChunk + 3}[rng.Intn(7)])
		buf = append(buf[:0], recs[:n]...)
		s.ObserveBatch(buf)
		for i := range buf {
			buf[i] = RequestRecord{ID: -1, Tenant: "scribbled"}
		}
		recs = recs[n:]
	}
}

// TestPipePreservesOrder checks the inner sink receives every record in
// observation order across chunk boundaries, with the caller's batches
// reused as soon as each call returns, and again after a Drain restarts
// the consumer.
func TestPipePreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := mergeRecords(3, 20*pipeChunk+17, []string{"a", "b", "c"})
	inner := NewExactRecorder(SLOTarget{})
	p := NewPipe(inner)
	half := len(recs) / 2
	feedRandom(p, recs[:half], rng)
	p.Drain()
	if got := inner.Records(); !reflect.DeepEqual(got, recs[:half]) {
		t.Fatalf("after the first Drain the inner sink holds %d records, want the first %d in order", len(got), half)
	}
	feedRandom(p, recs[half:], rng)
	if !p.running {
		t.Fatal("records observed after Drain never reached a restarted consumer")
	}
	p.Drain()
	if got := inner.Records(); !reflect.DeepEqual(got, recs) {
		t.Fatalf("inner sink holds %d records out of order or altered, want %d in order", len(got), len(recs))
	}
}

// TestPipeSnapshotDrains checks Snapshot reads the inner sink after every
// record has reached it: bit for bit the snapshot of a sink fed directly.
func TestPipeSnapshotDrains(t *testing.T) {
	slo := SLOTarget{TTFT: 0.3, TPOT: 0.02}
	recs := mergeRecords(4, 5*pipeChunk+100, []string{""})
	direct := NewStreamingSink(slo)
	p := NewPipe(NewStreamingSink(slo))
	for i := 0; i < len(recs); i += 37 {
		batch := recs[i:min(i+37, len(recs))]
		ObserveAll(direct, batch)
		p.ObserveBatch(batch)
	}
	if !p.running {
		t.Fatal("no chunk reached the consumer")
	}
	if got, want := p.Snapshot(), direct.Snapshot(); got != want {
		t.Fatalf("piped snapshot %+v\nwant %+v", got, want)
	}
	// A Pipe that never filled a chunk feeds everything at Drain.
	small := NewPipe(NewStreamingSink(slo))
	small.ObserveBatch(recs[:10])
	if small.running {
		t.Fatal("a sub-chunk Pipe started its consumer")
	}
	if got := small.Snapshot().Count + small.Snapshot().Dropped; got != 10 {
		t.Fatalf("a sub-chunk Pipe's snapshot saw %d of 10 records", got)
	}
}

// TestPipeStopsItsGoroutine checks Drain leaves no goroutine of the Pipe
// running, and that a Pipe never filled past one chunk never starts one.
func TestPipeStopsItsGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPipe(NewStreamingSink(SLOTarget{}))
	p.ObserveBatch(mergeRecords(5, pipeChunk-1, []string{""}))
	// A goroutine of an earlier test can still be exiting, so the count
	// may fall below base, but it must not rise.
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines before the first full chunk, want at most %d", n, base)
	}
	p.ObserveBatch(mergeRecords(6, 4*pipeChunk, []string{""}))
	p.Drain()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Drain, want at most %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// slowSink counts records without allocating, slowly enough per record
// that a producer copying batches runs ahead of it.
type slowSink struct {
	n   int
	sum float64
}

func (c *slowSink) Observe(r RequestRecord) {
	c.n++
	for i := range 64 {
		c.sum += float64(i) * r.FinishedAt
	}
}
func (c *slowSink) Snapshot() Snapshot { return Snapshot{Count: c.n} }

// TestPipeBoundsLiveChunks streams a million records through a Pipe and
// bounds the bytes it allocates below five chunks: consumed chunks are
// reused, so no more than two queued, one consumed and one open ever
// exist, however far the producer runs ahead. (Four chunks, rounded up to
// whole pages, plus the channels and the goroutine, come to about 165 KB;
// five chunks are 184 KB before rounding.)
func TestPipeBoundsLiveChunks(t *testing.T) {
	const n = 1 << 20
	batch := mergeRecords(7, 13, []string{""})
	inner := &slowSink{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPipe(inner)
	for i := 0; i < n; i += len(batch) {
		p.ObserveBatch(batch)
	}
	p.Drain()
	runtime.ReadMemStats(&after)
	chunk := uint64(pipeChunk * unsafe.Sizeof(RequestRecord{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= 5*chunk {
		t.Fatalf("a Pipe allocated %d bytes for %d records, at least five %d-byte chunks", got, n, chunk)
	}
	if want := (n + len(batch) - 1) / len(batch) * len(batch); inner.n != want {
		t.Fatalf("inner sink saw %d records, want %d", inner.n, want)
	}
}
