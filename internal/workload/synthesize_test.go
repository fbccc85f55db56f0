package workload

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestSynthesizeMatchesAssemble: drawing the mix on its own goroutine
// gives Assemble's trace whatever the arrival-count estimate — exact, far
// too low (the draws wait at their limit, then grow), far too high (the
// surplus draws are dropped), zero or NaN — for sorted, unsorted and empty
// times, and leaves the caller's times in place.
func TestSynthesizeMatchesAssemble(t *testing.T) {
	mix := []MixEntry{
		{Tenant: "chat", Dataset: ShareGPT, Weight: 3},
		{Tenant: "off", Dataset: LongBench, Weight: 0},
		{Tenant: "code", Dataset: HumanEval, Weight: 1},
	}
	sorted := PoissonTimes(50, 400, rand.New(rand.NewSource(3)))
	unsorted := []float64{5, 1, 3, 3, 0.5, 2, 8, 7}
	for _, tc := range []struct {
		name  string
		times []float64
	}{
		{"sorted", sorted},
		{"unsorted", unsorted},
		{"empty", []float64{}},
		{"nil", nil},
	} {
		n := float64(len(tc.times))
		for _, expected := range []float64{n, 0, n / 50, 10 * n, math.NaN()} {
			before := append([]float64(nil), tc.times...)
			want := Assemble(tc.times, mix, 9)
			got := Synthesize(func() []float64 { return tc.times }, expected, mix, 9)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, estimate %g: Synthesize differs from Assemble", tc.name, expected)
			}
			if !slices.Equal(tc.times, before) {
				t.Fatalf("%s: the caller's times were reordered", tc.name)
			}
		}
	}
	reqs := Assemble(unsorted, mix, 9)
	for i := 1; i < len(reqs); i++ {
		if reqs[i].ArrivalAt < reqs[i-1].ArrivalAt {
			t.Fatal("Assemble left unsorted times unsorted")
		}
	}
}

// TestSynthesizePanicReachesCaller: a panicking arrival process panics on
// the caller's goroutine, where it can be recovered, and the draw
// goroutine still finishes.
func TestSynthesizePanicReachesCaller(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("the arrival process's panic did not reach the caller")
		}
	}()
	Synthesize(func() []float64 { panic("bad arrivals") }, 1e4, nil, 1)
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
