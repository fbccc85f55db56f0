// Package fleet shards one simulated serving run across N independent
// cluster replicas behind a front-door router — the layer that turns "one
// run is one cluster" into "one run is a fleet", and the first place the
// simulator parallelizes *inside* a single run rather than across runs.
//
// The package deliberately contains no execution machinery: it decides,
// deterministically and entirely at admission time, which shard serves
// each request (Router). The scenario layer owns the rest — building one
// engine per shard, executing the shards concurrently on the sweep worker
// pool, and merging per-shard results/windows/traces in shard order. Because every routing decision is a pure function of the request
// sequence (never of completion-order feedback), the merged output is
// byte-identical at any shard-worker count and any GOMAXPROCS.
package fleet

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"hetis/internal/workload"
)

// Routing policies.
const (
	// PolicyWeighted is smooth weighted round-robin: shard i receives a
	// share of requests proportional to its weight, interleaved as evenly
	// as the weights allow (nginx's SWRR, without the dynamic demotion).
	PolicyWeighted = "weighted"
	// PolicyLeastLoaded routes each request to the shard with the least
	// cumulative assigned work (prompt + output tokens, scaled by shard
	// weight) at admission time. This is the deterministic stand-in for a
	// queue-depth balancer: assigned work is known at admission, queue
	// depth is not knowable without completion feedback.
	PolicyLeastLoaded = "least-loaded"
	// PolicyAffinity pins each tenant to a shard by hashing the tenant
	// name (FNV-1a), so a tenant's requests share one shard's KV cache and
	// batch. Untenanted requests fall back to weighted round-robin.
	PolicyAffinity = "affinity"
)

// policies lists the routing policies in documentation order; a Router's
// policy is its index here.
var policies = [...]string{PolicyWeighted, PolicyLeastLoaded, PolicyAffinity}

const (
	weighted = iota
	leastLoaded
	affinity
)

// Policies lists the routing policies in documentation order.
func Policies() []string { return slices.Clone(policies[:]) }

// KnownPolicy reports whether name is a routing policy.
func KnownPolicy(name string) bool { return slices.Contains(policies[:], name) }

// Router assigns requests to shards under one of the routing policies. A
// Router is stateful (round-robin counters, cumulative load) and
// single-goroutine: route one trace through it in arrival order, before
// any shard executes. It is NOT safe for concurrent use — by construction
// it never needs to be, since routing completes before execution begins.
type Router struct {
	policy  int // index into policies
	weights []float64
	total   float64 // sum of weights

	current []float64 // SWRR per-shard accumulators
	load    []float64 // least-loaded cumulative assigned tokens
	ratio   []float64 // load[i]/weights[i], recomputed for the charged shard only
}

// NewRouter builds a router over `shards` shards. weights may be nil (all
// shards weigh 1) or one positive, finite weight per shard; they scale
// both the round-robin share and the least-loaded capacity.
func NewRouter(policy string, shards int, weights []float64) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 shard, got %d", shards)
	}
	p := slices.Index(policies[:], policy)
	if p < 0 {
		return nil, fmt.Errorf("fleet: unknown routing policy %q (known: %s)", policy, strings.Join(Policies(), ", "))
	}
	if weights == nil {
		weights = make([]float64, shards)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != shards {
		return nil, fmt.Errorf("fleet: %d weights for %d shards", len(weights), shards)
	}
	var total float64
	for i, w := range weights {
		// A NaN weight compares false both ways and an infinite one
		// swallows every share, so both would starve or flood shards.
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("fleet: shard %d weight %g must be positive and finite", i, w)
		}
		total += w
	}
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("fleet: weights sum to %g; scale them down", total)
	}
	return &Router{
		policy:  p,
		weights: slices.Clone(weights),
		total:   total,
		current: make([]float64, shards),
		load:    make([]float64, shards),
		ratio:   make([]float64, shards),
	}, nil
}

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.weights) }

// Policy reports the routing policy.
func (r *Router) Policy() string { return policies[r.policy] }

// Weights returns a copy of the shard weights (all 1 when NewRouter got
// nil).
func (r *Router) Weights() []float64 { return slices.Clone(r.weights) }

// Shares estimates the fraction of a trace drawn from mix that each shard
// receives, for pre-sizing the shards' sub-traces. Round-robin and
// least-loaded routing split by weight. Affinity sends each named
// tenant's mix share (entries with Weight <= 0 are never drawn) to the
// shard its name hashes to, and splits the untenanted share by weight; an
// empty or all-zero mix is untenanted. The shares are non-negative and
// sum to 1 up to rounding, or are all NaN or zero when the weights of mix
// overflow to an infinite sum.
func (r *Router) Shares(mix []workload.MixEntry) []float64 {
	shares := make([]float64, len(r.weights))
	untenanted, total := 0.0, 0.0
	for _, e := range mix {
		if e.Weight <= 0 {
			continue
		}
		total += e.Weight
		if r.policy == affinity && e.Tenant != "" {
			shares[fnv1a(e.Tenant)%uint64(len(shares))] += e.Weight
		} else {
			untenanted += e.Weight
		}
	}
	if total == 0 {
		untenanted, total = 1, 1
	}
	for i, w := range r.weights {
		shares[i] = (shares[i] + untenanted*w/r.total) / total
	}
	return shares
}

// Assign routes one request: it returns the index of the shard that
// serves it. Decisions depend only on the request sequence assigned so
// far — admission-time state, never execution feedback — so the
// assignment is reproducible from the trace alone.
func (r *Router) Assign(req *workload.Request) int {
	switch r.policy {
	case leastLoaded:
		return r.routeLeastLoaded(req.TotalLen())
	case affinity:
		if req.Tenant != "" {
			return int(fnv1a(req.Tenant) % uint64(len(r.weights)))
		}
	}
	return r.routeSWRR()
}

// routeSWRR is one smooth-weighted-round-robin step: every shard gains its
// weight, the richest shard wins and pays the total back. Ties break to
// the lowest index.
func (r *Router) routeSWRR() int {
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

// routeLeastLoaded picks the shard with the smallest weight-scaled
// cumulative assigned work and charges the request's total tokens to it.
// Ties break to the lowest index. Only the charged shard's ratio changes,
// so only it is divided again: the same divisions as recomputing every
// ratio per request, so the same decisions.
func (r *Router) routeLeastLoaded(tokens int) int {
	best := 0
	for i := 1; i < len(r.ratio); i++ {
		if r.ratio[i] < r.ratio[best] {
			best = i
		}
	}
	r.load[best] += float64(tokens)
	r.ratio[best] = r.load[best] / r.weights[best]
	return best
}

// Partition routes a whole trace and splits it into one sub-trace per
// shard, preserving arrival order within each shard: each request is
// assigned and appended to its shard's own slice. Every request lands in
// exactly one shard; the sub-trace lengths sum to len(reqs), and a shard
// that receives nothing gets nil. The caller's slice is left as it was.
func (r *Router) Partition(reqs []workload.Request) [][]workload.Request {
	out := make([][]workload.Request, r.Shards())
	for i := range reqs {
		s := r.Assign(&reqs[i])
		out[s] = append(out[s], reqs[i])
	}
	return out
}

// fnv1a is the 64-bit FNV-1a hash, inlined so routing a tenant costs no
// allocation and no stdlib hashing state.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
