package parallelizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/perf"
)

func TestApportionMinMaxBasics(t *testing.T) {
	// Equal costs split evenly.
	got := apportionMinMax(10, []float64{1, 1})
	if got[0]+got[1] != 10 || got[0] != 5 {
		t.Fatalf("equal costs: %v", got)
	}
	// A stage 10x more expensive per layer gets ~1/10 the layers.
	got = apportionMinMax(22, []float64{1, 10})
	if got[0]+got[1] != 22 {
		t.Fatalf("sum broken: %v", got)
	}
	if got[1] > 4 {
		t.Fatalf("expensive stage overloaded: %v", got)
	}
	// A stage whose single-layer cost exceeds the balanced maximum gets
	// zero layers — the key behaviour enabling P100 demotion.
	got = apportionMinMax(10, []float64{1, 100})
	if got[1] != 0 {
		t.Fatalf("hopeless stage should get 0 layers: %v", got)
	}
	// Degenerate inputs.
	if out := apportionMinMax(5, nil); len(out) != 0 {
		t.Fatalf("nil costs: %v", out)
	}
	if out := apportionMinMax(0, []float64{1}); out[0] != 0 {
		t.Fatalf("zero layers: %v", out)
	}
}

func TestApportionMinMaxProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		total := 1 + rng.Intn(100)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 0.1 + rng.Float64()*10
		}
		out := apportionMinMax(total, costs)
		// Conservation.
		sum := 0
		for _, l := range out {
			if l < 0 {
				return false
			}
			sum += l
		}
		if sum != total {
			return false
		}
		// Local optimality: no single-layer move may strictly lower the max.
		maxCost := func(a []int) float64 {
			m := 0.0
			for i, l := range a {
				if c := float64(l) * costs[i]; c > m {
					m = c
				}
			}
			return m
		}
		base := maxCost(out)
		for i := range out {
			if out[i] == 0 {
				continue
			}
			for j := range out {
				if i == j {
					continue
				}
				trial := append([]int(nil), out...)
				trial[i]--
				trial[j]++
				if maxCost(trial) < base-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestForceInstances(t *testing.T) {
	est := newEst(t, model.Llama13B)
	wl := DefaultWorkload()
	for _, d := range []int{1, 2, 4} {
		opts := DefaultOptions()
		opts.ForceInstances = d
		plan, err := Search(hardware.PaperCluster(), est, wl, opts)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if len(plan.Instances) != d {
			t.Fatalf("ForceInstances=%d yielded %d instances", d, len(plan.Instances))
		}
	}
	// Forcing an impossible split errors.
	opts := DefaultOptions()
	opts.ForceInstances = 3 // 4 GPUs of each type are not divisible by 3
	if _, err := Search(hardware.PaperCluster(), est, wl, opts); err == nil {
		t.Fatal("ForceInstances=3 should be infeasible on the paper cluster")
	}
}

func TestCacheToleranceSelectsCapacity(t *testing.T) {
	// Search keeps the best plan of every feasible instance count; forcing
	// each count recovers that list. The chosen plan must lie within
	// (1+cacheTolerance) of the best objective and hold the most cache of
	// the plans that do.
	cluster := hardware.PaperCluster()
	wl := DefaultWorkload()
	for _, cfg := range []model.Config{model.Llama13B, model.Llama70B} {
		est := newEst(t, cfg)
		chosen, err := Search(cluster, est, wl, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var feasible []*Plan
		for d := 1; d <= len(cluster.Devices); d++ {
			opts := DefaultOptions()
			opts.ForceInstances = d
			if plan, err := Search(cluster, est, wl, opts); err == nil {
				feasible = append(feasible, plan)
			}
		}
		minObj := math.Inf(1)
		for _, p := range feasible {
			minObj = math.Min(minObj, p.Objective)
		}
		limit := minObj * (1 + cacheTolerance)
		if chosen.Objective > limit {
			t.Fatalf("%s: chosen objective %g outside tolerance of the best %g", cfg.Name, chosen.Objective, minObj)
		}
		for _, p := range feasible {
			if p.Objective <= limit && p.CacheCapacity > chosen.CacheCapacity {
				t.Errorf("%s: a %d-instance plan within tolerance (objective %g) holds %d bytes of cache, more than the chosen %d",
					cfg.Name, len(p.Instances), p.Objective, p.CacheCapacity, chosen.CacheCapacity)
			}
		}
		if len(feasible) < 2 {
			t.Errorf("%s: %d feasible instance counts; the property needs a choice", cfg.Name, len(feasible))
		}
	}
}

// BenchmarkApportion measures the layer-apportionment hot path of the
// exclusion loop.
func BenchmarkApportion(b *testing.B) {
	costs := []float64{1.0, 2.4, 24.5}
	for i := 0; i < b.N; i++ {
		_ = apportionMinMax(80, costs)
	}
}

func TestExtendedSearchNeverWorse(t *testing.T) {
	est13 := newEst(t, model.Llama13B)
	est70 := newEst(t, model.Llama70B)
	wl := DefaultWorkload()
	for _, tc := range []struct {
		name string
		est  *perf.Estimator
	}{{"Llama-13B", est13}, {"Llama-70B", est70}} {
		base, err := Search(hardware.PaperCluster(), tc.est, wl, DefaultOptions())
		if err != nil {
			t.Fatalf("%s base: %v", tc.name, err)
		}
		opts := DefaultOptions()
		opts.ExtendedSearch = true
		ext, err := Search(hardware.PaperCluster(), tc.est, wl, opts)
		if err != nil {
			t.Fatalf("%s extended: %v", tc.name, err)
		}
		t.Logf("%s: objective %.3f -> %.3f, attention workers %d -> %d",
			tc.name, base.Objective, ext.Objective,
			base.NumAttentionWorkers(), ext.NumAttentionWorkers())
		// The extended candidate set is a superset, so it can only match
		// or improve the modeled objective (modulo the cache-tolerance
		// tiebreak, which trades within the band).
		if ext.Objective > base.Objective*(1+cacheTolerance)+1e-9 {
			t.Errorf("%s: extended search worsened objective beyond tolerance: %g vs %g",
				tc.name, ext.Objective, base.Objective)
		}
	}
}

func TestExtendedSearchDropsSlowTierFor13B(t *testing.T) {
	// For Llama-13B on the paper cluster, the comm-aware model prefers
	// A100-only dense compute; the extension should demote the 3090s that
	// the Cp heuristic keeps.
	opts := DefaultOptions()
	opts.ExtendedSearch = true
	plan, err := Search(hardware.PaperCluster(), newEst(t, model.Llama13B), DefaultWorkload(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumAttentionWorkers() < 8 {
		t.Errorf("extended search kept %d attention workers, expected >=8 (3090s + P100s demoted)",
			plan.NumAttentionWorkers())
	}
}
