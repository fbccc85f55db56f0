package workload

import (
	"iter"
	"math"
	"math/rand"
	"testing"
)

// generators enumerates every arrival-process generator under one
// normalized signature so the invariant checks cover them uniformly.
var generators = []struct {
	name string
	gen  func(rate, duration float64, seed int64) []Request
}{
	{"poisson", func(rate, duration float64, seed int64) []Request {
		return Poisson(ShareGPT, rate, duration, seed)
	}},
	{"piecewise", func(rate, duration float64, seed int64) []Request {
		return PiecewiseRate(HumanEval, []RateSegment{
			{Rate: rate, Duration: duration / 3},
			{Rate: 0, Duration: duration / 3},
			{Rate: rate / 2, Duration: duration / 3},
		}, seed)
	}},
	{"mmpp", func(rate, duration float64, seed int64) []Request {
		return synthesizeOne(ShareGPT, seed, func(rng *rand.Rand) iter.Seq[float64] {
			return MMPPArrivals([]MMPPState{
				{Rate: rate * 2, MeanDwell: duration / 8},
				{Rate: rate / 4, MeanDwell: duration / 4},
			}, duration, rng)
		})
	}},
	{"diurnal", func(rate, duration float64, seed int64) []Request {
		return synthesizeOne(LongBench, seed, func(rng *rand.Rand) iter.Seq[float64] {
			return DiurnalArrivals(rate, 0.8, duration, duration, rng)
		})
	}},
	{"flashcrowd", func(rate, duration float64, seed int64) []Request {
		return synthesizeOne(ShareGPT, seed, func(rng *rand.Rand) iter.Seq[float64] {
			return FlashCrowdArrivals(rate, duration/3, duration/6, 5, duration, rng)
		})
	}},
	{"closedloop", func(rate, duration float64, seed int64) []Request {
		users := int(rate * 4)
		if users < 1 {
			users = 1
		}
		return synthesizeOne(HumanEval, seed, func(rng *rand.Rand) iter.Seq[float64] {
			return ClosedLoopArrivals(users, 4, duration, rng)
		})
	}},
}

// synthesizeOne is a single-tenant trace on dist: the arrival times
// arrivals draws from a stream seeded by seed, the mix through Synthesize.
func synthesizeOne(dist LengthDist, seed int64, arrivals func(*rand.Rand) iter.Seq[float64]) []Request {
	return Synthesize(arrivals(rand.New(rand.NewSource(seed))), 0, []MixEntry{{Dataset: dist, Weight: 1}}, seed)
}

// checkTraceInvariants asserts the contract every generator must keep:
// arrivals sorted within [0, duration), IDs sequential from 0, lengths
// positive, and byte-for-byte determinism across regenerations.
func checkTraceInvariants(t *testing.T, name string, gen func() []Request, duration float64) {
	t.Helper()
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("%s: regeneration changed length: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: request %d differs across identical generations: %+v vs %+v", name, i, a[i], b[i])
		}
		if a[i].ArrivalAt < 0 || a[i].ArrivalAt >= duration {
			t.Fatalf("%s: arrival %g outside [0,%g)", name, a[i].ArrivalAt, duration)
		}
		if i > 0 && a[i].ArrivalAt < a[i-1].ArrivalAt {
			t.Fatalf("%s: arrivals not sorted at %d (%g < %g)", name, i, a[i].ArrivalAt, a[i-1].ArrivalAt)
		}
		if a[i].ID != int64(i) {
			t.Fatalf("%s: ID %d at index %d", name, a[i].ID, i)
		}
		if a[i].PromptLen <= 0 || a[i].OutputLen <= 0 {
			t.Fatalf("%s: nonpositive lengths %+v", name, a[i])
		}
	}
}

// FuzzGeneratorInvariants drives every arrival generator with arbitrary
// (rate, duration, seed) and asserts the trace contract. The corpus seeds
// double as the regression set under plain `go test`.
func FuzzGeneratorInvariants(f *testing.F) {
	f.Add(5.0, 30.0, int64(1))
	f.Add(0.3, 120.0, int64(42))
	f.Add(25.0, 10.0, int64(-7))
	f.Add(1.0, 1.0, int64(0))
	f.Add(100.0, 2.0, int64(1<<40))
	f.Fuzz(func(t *testing.T, rate, duration float64, seed int64) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) || math.IsNaN(duration) || math.IsInf(duration, 0) {
			t.Skip()
		}
		// Clamp to a sane sampling envelope: the invariants must hold for
		// ANY parameters in range, the clamp only bounds fuzz runtime.
		if rate <= 0 || rate > 200 || duration <= 0 || duration > 200 || rate*duration > 20000 {
			t.Skip()
		}
		for _, g := range generators {
			g := g
			checkTraceInvariants(t, g.name, func() []Request { return g.gen(rate, duration, seed) }, duration)
		}
	})
}

// TestSeedIndependence: different seeds must (overwhelmingly) give
// different traces — seeds flow through, not get ignored.
func TestSeedIndependence(t *testing.T) {
	for _, g := range generators {
		a := g.gen(5, 60, 1)
		b := g.gen(5, 60, 2)
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("%s: empty trace", g.name)
		}
		same := len(a) == len(b)
		if same {
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 produced identical traces", g.name)
		}
	}
}
