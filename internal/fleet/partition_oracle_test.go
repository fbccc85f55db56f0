package fleet_test

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hetis/internal/fleet"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// refRouter is the frozen router that the streamed front door is held to:
// the same three policies, least-loaded dividing every shard's load by
// its weight on every request, affinity hashing through hash/fnv, and a
// partition that appends each request to its shard's own growing slice.
type refRouter struct {
	policy  string
	weights []float64
	total   float64
	current []float64
	load    []float64
}

func newRefRouter(policy string, weights []float64) *refRouter {
	r := &refRouter{policy: policy, weights: weights,
		current: make([]float64, len(weights)), load: make([]float64, len(weights))}
	for _, w := range weights {
		r.total += w
	}
	return r
}

func (r *refRouter) route(req workload.Request) int {
	switch r.policy {
	case fleet.PolicyLeastLoaded:
		best := 0
		for i := 1; i < len(r.load); i++ {
			if r.load[i]/r.weights[i] < r.load[best]/r.weights[best] {
				best = i
			}
		}
		r.load[best] += float64(req.TotalLen())
		return best
	case fleet.PolicyAffinity:
		if req.Tenant != "" {
			h := fnv.New64a()
			h.Write([]byte(req.Tenant))
			return int(h.Sum64() % uint64(len(r.weights)))
		}
	}
	best := 0
	for i := range r.current {
		r.current[i] += r.weights[i]
		if r.current[i] > r.current[best] {
			best = i
		}
	}
	r.current[best] -= r.total
	return best
}

func (r *refRouter) partition(reqs []workload.Request) [][]workload.Request {
	out := make([][]workload.Request, len(r.weights))
	for _, req := range reqs {
		s := r.route(req)
		out[s] = append(out[s], req)
	}
	return out
}

// FuzzPartitionScatter drives the streamed front door (Spec.Shards, which
// routes each chunk of the trace into its shards as it is synthesized)
// with random policies, shard counts, weights (uniform or skewed, nil
// included), tenant mixes and trace lengths from empty to about ten
// chunks, and holds it to the frozen append-based partition of
// Spec.Trace(): the shards must be equal, empty shards nil included.
// Router.Partition of the same trace must agree too.
func FuzzPartitionScatter(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(1), uint16(1000), uint8(0), false)
	f.Add(int64(2), uint8(3), uint8(0), uint16(37), uint8(3), true)
	f.Add(int64(-9), uint8(16), uint8(2), uint16(500), uint8(1), true)
	f.Add(int64(5), uint8(1), uint8(1), uint16(0), uint8(2), false)
	f.Add(int64(77), uint8(40), uint8(1), uint16(3), uint8(0), true)
	f.Add(int64(3), uint8(5), uint8(1), uint16(2000), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nshards, policyIdx uint8, n uint16, mixIdx uint8, skew bool) {
		shards := 1 + int(nshards)%40
		policy := fleet.Policies()[int(policyIdx)%len(fleet.Policies())]
		rng := rand.New(rand.NewSource(seed))
		var weights []float64
		if skew {
			weights = make([]float64, shards)
			for i := range weights {
				// Spans tiny to large weights, so the least-loaded ratios
				// are far from round numbers.
				weights[i] = math.Exp(rng.Float64()*12 - 6)
			}
		}
		datasets := []workload.LengthDist{workload.ShareGPT, workload.HumanEval, workload.LongBench}
		mixes := [][]string{nil, {"code"}, {"chat", "code", "batch"}, {"", "a", "b", "c", "long-tenant-name"}}
		var mix []workload.MixEntry
		for i, tenant := range mixes[int(mixIdx)%len(mixes)] {
			mix = append(mix, workload.MixEntry{Tenant: tenant, Dataset: datasets[i%len(datasets)], Weight: 0.5 + rng.Float64()})
		}
		// Up to about 41k requests over the 40 s default span: ten
		// chunks of draws, or (n = 0) most likely none at all.
		rate := max(float64(n%4096)/4, 0.01)
		spec := scenario.Spec{
			Name:    "fuzz",
			Traffic: scenario.Traffic{Kind: scenario.KindPoisson, Rate: rate},
			Mix:     mix,
			Seed:    seed,
			Fleet:   &scenario.FleetSpec{Shards: shards, Policy: policy, Weights: weights},
		}
		got, err := spec.Shards()
		if err != nil {
			t.Fatal(err)
		}
		trace, err := spec.Trace()
		if err != nil {
			t.Fatal(err)
		}
		refWeights := weights
		if refWeights == nil {
			refWeights = make([]float64, shards)
			for i := range refWeights {
				refWeights[i] = 1
			}
		}
		want := newRefRouter(policy, refWeights).partition(trace)
		if !reflect.DeepEqual(got, want) {
			for s := range want {
				if !reflect.DeepEqual(got[s], want[s]) {
					t.Fatalf("%s, %d shards, %d requests: shard %d holds %d requests, append-based partition %d", policy, shards, len(trace), s, len(got[s]), len(want[s]))
				}
			}
			t.Fatalf("%s, %d shards: partitions differ", policy, shards)
		}
		r, err := fleet.NewRouter(policy, shards, weights)
		if err != nil {
			t.Fatal(err)
		}
		if parts := r.Partition(trace); !reflect.DeepEqual(parts, want) {
			t.Fatalf("%s, %d shards: Router.Partition differs from the append-based partition", policy, shards)
		}
	})
}
