package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"hetis/internal/workload"
)

// refRouter is the frozen router that the scatter Partition replaced: the
// same three policies, least-loaded dividing every shard's load by its
// weight on every request, and a Partition that appends each request to
// its shard's own growing slice. FuzzPartitionScatter holds Router to it.
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
	case PolicyLeastLoaded:
		best := 0
		for i := 1; i < len(r.load); i++ {
			if r.load[i]/r.weights[i] < r.load[best]/r.weights[best] {
				best = i
			}
		}
		r.load[best] += float64(req.TotalLen())
		return best
	case PolicyAffinity:
		if req.Tenant != "" {
			return int(fnv1a(req.Tenant) % uint64(len(r.weights)))
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

// FuzzPartitionScatter drives Partition and the frozen append-based one
// with random policies, shard counts, weights (uniform or skewed, nil
// included) and tenant mixes. Partition reorders its input, so the oracle
// runs on a copy taken first. The parts must be equal, empty shards nil
// included; each non-empty part must be the next window of the input, in
// shard order, so together they hold exactly the input's requests; and
// appending to any part must leave every other part as it was (the parts
// share one backing array).
func FuzzPartitionScatter(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(1), uint16(1000), uint8(0), false)
	f.Add(int64(2), uint8(3), uint8(0), uint16(37), uint8(3), true)
	f.Add(int64(-9), uint8(16), uint8(2), uint16(500), uint8(1), true)
	f.Add(int64(5), uint8(1), uint8(1), uint16(0), uint8(2), false)
	f.Add(int64(77), uint8(40), uint8(1), uint16(3), uint8(0), true)
	f.Add(int64(3), uint8(5), uint8(1), uint16(2000), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nshards, policyIdx uint8, n uint16, mixIdx uint8, skew bool) {
		shards := 1 + int(nshards)%40
		policy := Policies()[int(policyIdx)%len(Policies())]
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
		mixes := [][]string{{""}, {"code"}, {"chat", "code", "batch"}, {"", "a", "b", "c", "long-tenant-name"}}
		tenants := mixes[int(mixIdx)%len(mixes)]
		reqs := make([]workload.Request, int(n)%4096)
		for i := range reqs {
			reqs[i] = workload.Request{
				ID:        int64(i),
				ArrivalAt: float64(i),
				PromptLen: 1 + rng.Intn(4000),
				OutputLen: 1 + rng.Intn(800),
				Tenant:    tenants[rng.Intn(len(tenants))],
			}
		}
		r, err := NewRouter(policy, shards, weights)
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
		orig := slices.Clone(reqs)
		want := newRefRouter(policy, refWeights).partition(orig)
		got := r.Partition(reqs)
		if !reflect.DeepEqual(got, want) {
			for s := range want {
				if !reflect.DeepEqual(got[s], want[s]) {
					t.Fatalf("%s, %d shards: shard %d holds %d requests, append-based partition %d", policy, shards, s, len(got[s]), len(want[s]))
				}
			}
			t.Fatalf("%s, %d shards: partitions differ", policy, shards)
		}
		lo := 0
		for s, part := range got {
			if part == nil {
				continue
			}
			if &part[0] != &reqs[lo] || cap(part) != len(part) {
				t.Fatalf("%s: part %d is not the clipped window reqs[%d:%d]", policy, s, lo, lo+len(part))
			}
			lo += len(part)
		}
		// The windows tile reqs and equal the oracle's parts of the copy,
		// so reqs now holds exactly the input's requests.
		if lo != len(reqs) {
			t.Fatalf("%s: parts cover %d of %d input slots", policy, lo, len(reqs))
		}
		for i := range got {
			got[i] = append(got[i], workload.Request{ID: -1, Tenant: "appended"})
			for j := range got {
				if j != i && !reflect.DeepEqual(got[j], want[j]) {
					t.Fatalf("%s: appending to part %d changed part %d", policy, i, j)
				}
			}
			got[i] = got[i][:len(got[i])-1]
			if len(got[i]) == 0 {
				got[i] = nil
			}
		}
	})
}

// TestPartitionExtraBytes pins the in-place partition's memory: on a
// balanced 8-way least-loaded split, at most about a quarter of the
// requests wait for their slot at once, so Partition allocates under
// 0.3·n requests, plus the 4n-byte shard array and a little bookkeeping.
// A scatter into a second exact-size array allocates n requests.
func TestPartitionExtraBytes(t *testing.T) {
	const n = 200_000
	rng := rand.New(rand.NewSource(11))
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{ID: int64(i), ArrivalAt: float64(i),
			PromptLen: 1 + rng.Intn(4000), OutputLen: 1 + rng.Intn(800)}
	}
	r, err := NewRouter(PolicyLeastLoaded, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parts := r.Partition(reqs)
	runtime.ReadMemStats(&after)
	if len(parts) != 8 {
		t.Fatalf("%d parts, want 8", len(parts))
	}
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(0.3*n*float64(unsafe.Sizeof(workload.Request{}))) + 4*n + 64<<10
	t.Logf("Partition of %d requests allocated %d bytes (limit %d)", n, got, limit)
	if got > limit {
		t.Fatalf("Partition of %d requests allocated %d bytes, over the limit of %d", n, got, limit)
	}
}

// TestPartitionEmptyShardsNil pins the partition's shape: an empty trace
// gives every shard nil, a starved shard stays nil, and each part's
// capacity is its length.
func TestPartitionEmptyShardsNil(t *testing.T) {
	r, err := NewRouter(PolicyAffinity, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s, part := range r.Partition(nil) {
		if part != nil {
			t.Fatalf("empty trace: shard %d = %v, want nil", s, part)
		}
	}
	reqs := make([]workload.Request, 50)
	for i := range reqs {
		reqs[i] = workload.Request{ID: int64(i), Tenant: "only"}
	}
	parts := r.Partition(reqs)
	pinned := int(fnv1a("only") % 4)
	for s, part := range parts {
		if s == pinned {
			if len(part) != 50 || cap(part) != 50 {
				t.Fatalf("pinned shard %d: len %d cap %d, want 50 and 50", s, len(part), cap(part))
			}
			continue
		}
		if part != nil {
			t.Fatalf("starved shard %d = %v, want nil", s, part)
		}
	}
}

// TestNewRouterRejectsNonFinite: a NaN or infinite weight (or weights whose
// sum overflows) must be refused with the offending shard named, for every
// policy (scenario's TestFleetValidation covers Spec.Validate). Before the
// check,
// {1, NaN, 1} starved shard 1 under least-loaded and sent everything to
// shard 0 under weighted, and {1, +Inf, 1} flooded shard 1 under
// least-loaded.
func TestNewRouterRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		want    string
	}{
		{"NaN", []float64{1, math.NaN(), 1}, "shard 1"},
		{"+Inf", []float64{1, math.Inf(1), 1}, "shard 1"},
		{"-Inf", []float64{1, 1, math.Inf(-1)}, "shard 2"},
		{"overflowing sum", []float64{math.MaxFloat64, math.MaxFloat64, 1}, "sum"},
	}
	for _, policy := range Policies() {
		for _, c := range cases {
			_, err := NewRouter(policy, len(c.weights), c.weights)
			if err == nil {
				t.Errorf("%s, %s weights: NewRouter accepted %v", policy, c.name, c.weights)
				continue
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %s weights: error %q does not name %q", policy, c.name, err, c.want)
			}
		}
	}
}
