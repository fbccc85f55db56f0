package workload

import (
	"iter"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// Assemble is Synthesize's sequential oracle: it draws the mix from a
// stream seeded by seed, on the caller's goroutine, one arrival at a time
// in ascending arrival order.
func Assemble(times []float64, mix []MixEntry, seed int64) []Request {
	d := newMixDrawer(mix, rand.New(rand.NewSource(seed)))
	times = slices.Clone(times)
	sort.Float64s(times)
	reqs := make([]Request, len(times))
	for i, t := range times {
		reqs[i] = Request{ID: int64(i), ArrivalAt: t}
		d.draw(&reqs[i])
	}
	return reqs
}

// TestSynthesizeMatchesAssemble: drawing the mix on its own goroutine
// gives Assemble's trace whatever the arrival-count estimate — exact, far
// too low (the draws wait at it, then continue past it), far too high
// (the surplus draws are dropped), zero or NaN — for long, short and empty
// arrival streams.
func TestSynthesizeMatchesAssemble(t *testing.T) {
	mix := []MixEntry{
		{Tenant: "chat", Dataset: ShareGPT, Weight: 3},
		{Tenant: "off", Dataset: LongBench, Weight: 0},
		{Tenant: "code", Dataset: HumanEval, Weight: 1},
	}
	for _, tc := range []struct {
		name  string
		times []float64
	}{
		{"poisson", PoissonTimes(50, 400, rand.New(rand.NewSource(3)))},
		{"short", []float64{0.5, 1, 2, 3, 3, 5, 7, 8}},
		{"empty", []float64{}},
		{"nil", nil},
	} {
		n := float64(len(tc.times))
		for _, expected := range []float64{n, 0, n / 50, 10 * n, math.NaN()} {
			want := Assemble(tc.times, mix, 9)
			got := Synthesize(slices.Values(tc.times), expected, mix, 9)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, estimate %g: Synthesize differs from Assemble", tc.name, expected)
			}
		}
	}
}

// TestSynthesizeChunksMatchesAssemble: the trace does not depend on the
// chunk buffers swap hands out — recycled, fresh, one request long or
// ragged — and the chunks arrive in trace order, each request once.
func TestSynthesizeChunksMatchesAssemble(t *testing.T) {
	mix := []MixEntry{{Tenant: "a", Dataset: ShareGPT, Weight: 1}, {Tenant: "b", Dataset: LongBench, Weight: 2}}
	times := PoissonTimes(30, 1000, rand.New(rand.NewSource(4)))
	want := Assemble(times, mix, 5)
	for _, tc := range []struct {
		name string
		size func(i int) int // the i-th buffer's length; 0 asks for a fresh one
	}{
		{"recycled", nil},
		{"fresh", func(int) int { return 0 }},
		{"single", func(int) int { return 1 }},
		{"ragged", func(i int) int { return 1 + i*37%700 }},
	} {
		var got []Request
		i := 0
		SynthesizeChunks(slices.Values(times), mix, 5, func(filled []Request) []Request {
			got = append(got, filled...)
			if tc.size == nil {
				return filled
			}
			i++
			return make([]Request, tc.size(i))
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s buffers: %d chunked requests differ from Assemble's %d", tc.name, len(got), len(want))
		}
	}
}

// TestSynthesizePanicReachesCaller: an arrival process that panics before
// its first arrival or mid-stream, through Synthesize or SynthesizeChunks,
// or a consumer that panics on its first chunk, panics on the caller's
// goroutine, where it can be recovered, and the draw goroutine exits: the
// goroutine count returns to its baseline.
func TestSynthesizePanicReachesCaller(t *testing.T) {
	panicsAfter := func(n int) iter.Seq[float64] {
		return func(yield func(float64) bool) {
			for i := range n {
				if !yield(float64(i)) {
					return
				}
			}
			panic("bad arrivals")
		}
	}
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Synthesize at once", func() { Synthesize(panicsAfter(0), 1e4, nil, 1) }},
		{"Synthesize mid-stream", func() { Synthesize(panicsAfter(3*drawChunk+5), 1e4, nil, 1) }},
		{"SynthesizeChunks mid-stream", func() {
			SynthesizeChunks(panicsAfter(10*drawChunk), nil, 1, func(filled []Request) []Request { return filled })
		}},
		{"SynthesizeChunks swap", func() {
			SynthesizeChunks(panicsAfter(10*drawChunk), nil, 1, func(filled []Request) []Request {
				if filled != nil {
					panic("bad consumer")
				}
				return filled
			})
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: the panic did not reach the caller", tc.name)
				}
			}()
			tc.run()
		}()
		// A goroutine of an earlier test can still be exiting, so the
		// count may fall below base, but it must come back down to it.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the panic, want at most %d", tc.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestPresizeBounded: the capacity hint covers a typical Poisson count,
// and neither a malformed estimate nor a huge one reserves more than
// maxPresize.
func TestPresizeBounded(t *testing.T) {
	for _, mean := range []float64{0, -5, math.NaN(), math.Inf(-1)} {
		if got := presize(mean); got != 0 {
			t.Errorf("presize(%g) = %d, want 0", mean, got)
		}
	}
	for _, mean := range []float64{maxPresize, 1e30, math.Inf(1)} {
		if got := presize(mean); got != maxPresize {
			t.Errorf("presize(%g) = %d, want the cap %d", mean, got, maxPresize)
		}
	}
	if got := presize(10000); got < 10000+3*100 {
		t.Errorf("presize(10000) = %d leaves less than three standard deviations of slack", got)
	}
	// A Poisson process at its estimate fits the pre-sized slice.
	times := PoissonTimes(100, 1000, rand.New(rand.NewSource(1)))
	if cap(times) != presize(100*1000) {
		t.Errorf("PoissonTimes regrew: cap %d for %d arrivals, presize %d", cap(times), len(times), presize(100*1000))
	}
}

// TestShardPresizeAndChunkPoolBounded: the per-shard pre-sizes of a
// sharded trace reserve at most maxPresize requests plus each shard's
// Poisson slack, whatever the rate estimate (malformed, huge or infinite)
// and however skewed the shard weights; and a recycling consumer of
// SynthesizeChunks sees drawAhead buffers in all, however long the trace,
// together under 1 MiB, and the call allocates little more than them.
func TestShardPresizeAndChunkPoolBounded(t *testing.T) {
	weights := [][]float64{{1}, {1, 1, 1, 1, 1, 1, 1, 1}, {1e-300, 1}, {1e300, 1e300, 1}, make([]float64, 64)}
	for i := range weights[4] {
		weights[4][i] = math.Exp(float64(i%13) - 6)
	}
	for _, w := range weights {
		s := float64(len(w))
		limit := maxPresize + 4*math.Sqrt(s*maxPresize) + 16*s
		for _, expected := range []float64{0, -1, math.NaN(), 1e4, maxPresize, 1e30, math.Inf(1)} {
			caps := PresizeShares(expected, w)
			sum := 0
			for _, c := range caps {
				if c < 0 || c > maxPresize {
					t.Fatalf("weights %v, estimate %g: a shard reserves %d requests", w, expected, c)
				}
				sum += c
			}
			if float64(sum) > limit {
				t.Errorf("weights %v, estimate %g: shards reserve %d requests in all, over %g", w, expected, sum, limit)
			}
		}
	}
	// Uniform shards of a Poisson trace at its estimate fit their pre-sizes.
	if caps := PresizeShares(8e4, []float64{1, 1, 1, 1}); float64(caps[0]) < 2e4+3*math.Sqrt(2e4) {
		t.Errorf("a quarter of 8e4 pre-sizes %d, less than three standard deviations of slack", caps[0])
	}

	if pool := drawAhead * drawChunk * int(unsafe.Sizeof(Request{})); pool > 1<<20 {
		t.Errorf("the chunk pool holds %d bytes, over 1 MiB", pool)
	}
	buffers := make(map[*Request]bool, 2*drawAhead)
	n := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	SynthesizeChunks(PoissonArrivals(100, 2000, rand.New(rand.NewSource(2))), nil, 3, func(filled []Request) []Request {
		n += len(filled)
		if filled != nil {
			if len(filled) > drawChunk {
				t.Fatalf("a chunk of %d requests, over drawChunk", len(filled))
			}
			buffers[&filled[:1][0]] = true
		}
		return filled
	})
	runtime.ReadMemStats(&after)
	if n < 40*drawChunk || len(buffers) != drawAhead {
		t.Fatalf("%d requests through %d distinct buffers, want at least %d through %d", n, len(buffers), 40*drawChunk, drawAhead)
	}
	// The request buffers are all it allocates, plus channels and the
	// draw goroutine: nothing grows with the trace.
	limit := uint64(drawAhead*drawChunk*unsafe.Sizeof(Request{})) + 64<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("SynthesizeChunks of %d requests allocated %d bytes, over %d", n, got, limit)
	}
}
