package main

import (
	"math/rand"
	"sort"
	"time"
)

// Host-speed normalization. A shared VM's speed drifts by 10-30% over tens
// of seconds to minutes (neighbours' load), the same for every rep of a
// run, so medians of raw host time move with the host rather than the code.
// The parent therefore times a fixed reference workload — standard library
// only, so no change to this repository can speed it up or slow it down —
// in a process of its own just before each rep, and rescales the rep's
// times to a reference host: one on which that workload takes
// referenceHostSeconds.
// A change to the simulator moves the rescaled times exactly as it moves
// the raw ones.

// referenceHostSeconds is the reference workload's median time on the
// 2-vCPU Linux VM the benchmark was defined on, so rescaled seconds stay
// close to host seconds there.
const referenceHostSeconds = 0.036

// referenceSeconds is the median of three timings of the reference
// workload: sorting a quarter-million random floats and hashing 128k keys
// into a map, the allocation, sorting and hashing mix the simulator
// itself leans on.
func referenceSeconds() float64 {
	var t [3]float64
	for i := range t {
		start := time.Now()
		referenceWork()
		t[i] = time.Since(start).Seconds()
	}
	sort.Float64s(t[:])
	return t[1]
}

// referenceResult keeps referenceWork's result alive.
var referenceResult float64

func referenceWork() {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<18)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	m := make(map[int64]int64)
	for i := 0; i < 1<<17; i++ {
		m[rng.Int63n(1<<16)] += int64(i)
	}
	referenceResult = xs[len(xs)/2] + float64(len(m))
}

// onReferenceHost converts a rep's host-time value of the given unit to
// the reference host: seconds shrink and rates grow on a host that ran the
// reference workload slower than referenceHostSeconds. Other units pass
// through.
func onReferenceHost(unit string, v, refS float64) float64 {
	switch unit {
	case "s":
		return v * referenceHostSeconds / refS
	case "1/s":
		return v * refS / referenceHostSeconds
	}
	return v
}
