package fleet

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hetis/internal/workload"
)

// shardOf returns the shard r assigns each request of reqs to, by trace
// position.
func shardOf(r *Router, reqs []workload.Request) []int {
	out := make([]int, len(reqs))
	for i := range reqs {
		out[i] = r.Assign(&reqs[i])
	}
	return out
}

func TestNewRouterValidation(t *testing.T) {
	cases := []struct {
		name    string
		policy  string
		shards  int
		weights []float64
	}{
		{"zero shards", PolicyWeighted, 0, nil},
		{"unknown policy", "round-robin-ish", 4, nil},
		{"weight count mismatch", PolicyWeighted, 4, []float64{1, 2}},
		{"zero weight", PolicyLeastLoaded, 2, []float64{1, 0}},
		{"negative weight", PolicyAffinity, 2, []float64{1, -3}},
	}
	for _, c := range cases {
		if _, err := NewRouter(c.policy, c.shards, c.weights); err == nil {
			t.Errorf("%s: NewRouter(%q, %d, %v) accepted", c.name, c.policy, c.shards, c.weights)
		}
	}
	for _, p := range Policies() {
		if !KnownPolicy(p) {
			t.Errorf("KnownPolicy(%q) = false for listed policy", p)
		}
		if _, err := NewRouter(p, 3, nil); err != nil {
			t.Errorf("NewRouter(%q, 3, nil): %v", p, err)
		}
	}
	if KnownPolicy("") {
		t.Error(`KnownPolicy("") = true`)
	}
}

// Equal weights reduce SWRR to plain round-robin — the tightest possible
// interleave, and a readable spot-check of the accumulator arithmetic.
func TestWeightedEqualIsRoundRobin(t *testing.T) {
	r, err := NewRouter(PolicyWeighted, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range shardOf(r, make([]workload.Request, 20)) {
		if want := i % 4; got != want {
			t.Fatalf("request %d routed to shard %d, want %d", i, got, want)
		}
	}
}

// Unequal weights must split the request count proportionally over any
// window that is a multiple of the weight total, and never starve the
// light shard to the end (the "smooth" in SWRR).
func TestWeightedShares(t *testing.T) {
	r, err := NewRouter(PolicyWeighted, 2, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	firstLight := -1
	for i, s := range shardOf(r, make([]workload.Request, 40)) {
		counts[s]++
		if s == 1 && firstLight < 0 {
			firstLight = i
		}
	}
	if counts[0] != 30 || counts[1] != 10 {
		t.Fatalf("shares = %v, want [30 10]", counts)
	}
	if firstLight >= 4 {
		t.Fatalf("light shard first served at request %d; SWRR should interleave within one weight cycle", firstLight)
	}
}

func TestLeastLoadedBalancesTokens(t *testing.T) {
	r, err := NewRouter(PolicyLeastLoaded, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	reqs := make([]workload.Request, 2000)
	for i := range reqs {
		reqs[i] = workload.Request{PromptLen: 1 + rng.Intn(900), OutputLen: 1 + rng.Intn(300)}
	}
	load := [3]float64{}
	for i, s := range shardOf(r, reqs) {
		load[s] += float64(reqs[i].TotalLen())
	}
	min, max := load[0], load[0]
	for _, l := range load[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// Admission-time balancing keeps shard loads within one max-request of
	// each other; 5% is a generous ceiling for this trace.
	if (max-min)/max > 0.05 {
		t.Fatalf("token loads diverge: %v", load)
	}
}

// A heavier least-loaded shard must absorb proportionally more tokens.
func TestLeastLoadedHonorsWeights(t *testing.T) {
	r, err := NewRouter(PolicyLeastLoaded, 2, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]workload.Request, 4000)
	for i := range reqs {
		reqs[i] = workload.Request{PromptLen: 100, OutputLen: 100}
	}
	load := [2]float64{}
	for i, s := range shardOf(r, reqs) {
		load[s] += float64(reqs[i].TotalLen())
	}
	ratio := load[0] / load[1]
	if ratio < 2.9 || ratio > 3.1 {
		t.Fatalf("load ratio %.2f, want ~3 for weights 3:1 (loads %v)", ratio, load)
	}
}

func TestAffinityPinsTenants(t *testing.T) {
	r, err := NewRouter(PolicyAffinity, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]int{}
	tenants := []string{"chat", "code", "batch", "search", ""}
	rng := rand.New(rand.NewSource(3))
	reqs := make([]workload.Request, 1000)
	for i := range reqs {
		reqs[i].Tenant = tenants[rng.Intn(len(tenants))]
	}
	for i, s := range shardOf(r, reqs) {
		tn := reqs[i].Tenant
		if tn == "" {
			continue // untenanted traffic round-robins; no pin to check
		}
		if prev, ok := pinned[tn]; ok && prev != s {
			t.Fatalf("tenant %q moved from shard %d to %d", tn, prev, s)
		}
		pinned[tn] = s
	}
	if len(pinned) != 4 {
		t.Fatalf("saw %d pinned tenants, want 4", len(pinned))
	}
}

// TestSharesMatchRouting: Shares predicts the fraction of a trace drawn
// from a mix that each shard receives, under every policy: by weight for
// round-robin and least-loaded, and for affinity by the mix share of the
// tenants that hash to each shard plus a weighted split of the untenanted
// share, whose shards (here the busiest gets about half) a split by weight
// would under-reserve.
func TestSharesMatchRouting(t *testing.T) {
	mix := []workload.MixEntry{
		{Tenant: "chat", Dataset: workload.ShareGPT, Weight: 3},
		{Tenant: "code", Dataset: workload.HumanEval, Weight: 2},
		{Tenant: "batch", Dataset: workload.LongBench, Weight: 1},
		{Dataset: workload.ShareGPT, Weight: 1},
		{Tenant: "off", Dataset: workload.ShareGPT, Weight: 0},
	}
	reqs := workload.Synthesize(workload.PoissonArrivals(1000, 100, rand.New(rand.NewSource(5))), 1e5, mix, 6)
	for _, policy := range Policies() {
		for _, weights := range [][]float64{nil, {1, 2, 3, 2}} {
			r, err := NewRouter(policy, 4, weights)
			if err != nil {
				t.Fatal(err)
			}
			shares := r.Shares(mix)
			var sum float64
			for _, sh := range shares {
				sum += sh
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%s %v: shares %v sum to %g", policy, weights, shares, sum)
			}
			got := make([]float64, 4)
			for _, s := range shardOf(r, reqs) {
				got[s]++
			}
			for i := range got {
				if got[i] /= float64(len(reqs)); math.Abs(got[i]-shares[i]) > 0.02 {
					t.Errorf("%s %v: shard %d received %.3f of the trace, Shares says %.3f", policy, weights, i, got[i], shares[i])
				}
			}
		}
	}
	r, err := NewRouter(PolicyAffinity, 4, []float64{1, 1, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range [][]workload.MixEntry{nil, {{Tenant: "x", Weight: 0}}} {
		if got, want := r.Shares(m), []float64{0.125, 0.125, 0.125, 0.625}; !slices.Equal(got, want) {
			t.Errorf("mix %v: shares %v, want the weights' %v", m, got, want)
		}
	}
}

// Routing must be a pure function of the request sequence: two routers fed
// the same trace agree on every assignment, regardless of anything else in
// the process.
func TestRouteDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tenants := []string{"chat", "code", "", "batch"}
	reqs := make([]workload.Request, 500)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID:        int64(i),
			PromptLen: 1 + rng.Intn(500),
			OutputLen: 1 + rng.Intn(200),
			Tenant:    tenants[rng.Intn(len(tenants))],
		}
	}
	for _, policy := range Policies() {
		a, err := NewRouter(policy, 5, []float64{2, 1, 1, 3, 1})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewRouter(policy, 5, []float64{2, 1, 1, 3, 1})
		sb := shardOf(b, reqs)
		for i, sa := range shardOf(a, reqs) {
			if sa != sb[i] {
				t.Fatalf("%s: request %d routed to %d and %d by identical routers", policy, i, sa, sb[i])
			}
		}
	}
}

func TestPartitionConservation(t *testing.T) {
	reqs := make([]workload.Request, 300)
	rng := rand.New(rand.NewSource(5))
	for i := range reqs {
		reqs[i] = workload.Request{ID: int64(i), ArrivalAt: float64(i) * 0.1,
			PromptLen: 1 + rng.Intn(100), OutputLen: 1 + rng.Intn(50)}
	}
	for _, policy := range Policies() {
		r, err := NewRouter(policy, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts := r.Partition(reqs)
		if len(parts) != 4 {
			t.Fatalf("%s: %d partitions, want 4", policy, len(parts))
		}
		seen := map[int64]bool{}
		total := 0
		for _, part := range parts {
			total += len(part)
			last := -1.0
			for _, req := range part {
				if seen[req.ID] {
					t.Fatalf("%s: request %d routed twice", policy, req.ID)
				}
				seen[req.ID] = true
				if req.ArrivalAt < last {
					t.Fatalf("%s: arrival order not preserved within shard", policy)
				}
				last = req.ArrivalAt
			}
		}
		if total != len(reqs) {
			t.Fatalf("%s: partitions hold %d requests, offered %d", policy, total, len(reqs))
		}
	}
}

// FuzzRouterConservation checks the two routing invariants the fleet merge
// relies on, for every policy on arbitrary traces: each request lands on
// exactly one in-range shard, and the per-shard token sums conserve the
// offered total.
func FuzzRouterConservation(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint16(100))
	f.Add(int64(99), uint8(1), uint8(1), uint16(37))
	f.Add(int64(-7), uint8(13), uint8(2), uint16(999))
	f.Fuzz(func(t *testing.T, seed int64, nshards, policyIdx uint8, n uint16) {
		shards := 1 + int(nshards)%16
		policy := Policies()[int(policyIdx)%len(Policies())]
		rng := rand.New(rand.NewSource(seed))
		weights := make([]float64, shards)
		for i := range weights {
			weights[i] = 0.25 + rng.Float64()*4
		}
		tenants := []string{"", "a", "b", "c", "long-tenant-name"}
		reqs := make([]workload.Request, int(n)%2048)
		var offered int64
		for i := range reqs {
			reqs[i] = workload.Request{
				ID:        int64(i),
				PromptLen: 1 + rng.Intn(2000),
				OutputLen: 1 + rng.Intn(500),
				Tenant:    tenants[rng.Intn(len(tenants))],
			}
			offered += int64(reqs[i].TotalLen())
		}
		r, err := NewRouter(policy, shards, weights)
		if err != nil {
			t.Fatal(err)
		}
		parts := r.Partition(reqs)
		seen := make(map[int64]bool, len(reqs))
		var got int64
		count := 0
		for s, part := range parts {
			if s < 0 || s >= shards {
				t.Fatalf("shard index %d out of range", s)
			}
			for _, req := range part {
				if seen[req.ID] {
					t.Fatalf("request %d routed twice", req.ID)
				}
				seen[req.ID] = true
				got += int64(req.TotalLen())
				count++
			}
		}
		if count != len(reqs) {
			t.Fatalf("routed %d of %d requests", count, len(reqs))
		}
		if got != offered {
			t.Fatalf("token conservation broken: routed %d, offered %d", got, offered)
		}
	})
}

// TestPartitionEmptyShardsNil pins the partition's shape: an empty trace
// gives every shard nil and a starved shard stays nil.
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
			if len(part) != 50 {
				t.Fatalf("pinned shard %d holds %d requests, want 50", s, len(part))
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
