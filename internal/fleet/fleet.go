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

// Policies lists the routing policies in documentation order.
func Policies() []string {
	return []string{PolicyWeighted, PolicyLeastLoaded, PolicyAffinity}
}

// KnownPolicy reports whether name is a routing policy.
func KnownPolicy(name string) bool {
	switch name {
	case PolicyWeighted, PolicyLeastLoaded, PolicyAffinity:
		return true
	}
	return false
}

// Router assigns requests to shards under one of the routing policies. A
// Router is stateful (round-robin counters, cumulative load) and
// single-goroutine: route one trace through it in arrival order, before
// any shard executes. It is NOT safe for concurrent use — by construction
// it never needs to be, since routing completes before execution begins.
type Router struct {
	policy  string
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
	if !KnownPolicy(policy) {
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
		policy:  policy,
		weights: append([]float64(nil), weights...),
		total:   total,
		current: make([]float64, shards),
		load:    make([]float64, shards),
		ratio:   make([]float64, shards),
	}, nil
}

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.weights) }

// Policy reports the routing policy.
func (r *Router) Policy() string { return r.policy }

// route assigns one request to a shard. Decisions depend only on the
// request sequence routed so far — admission-time state, never execution
// feedback — so the assignment is reproducible from the trace alone.
func (r *Router) route(req *workload.Request) int {
	switch r.policy {
	case PolicyLeastLoaded:
		return r.routeLeastLoaded(req.TotalLen())
	case PolicyAffinity:
		if req.Tenant != "" {
			return int(fnv1a(req.Tenant) % uint64(len(r.weights)))
		}
		return r.routeSWRR()
	default: // PolicyWeighted
		return r.routeSWRR()
	}
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
// shard, preserving arrival order within each shard. Every request lands
// in exactly one shard; the sub-trace lengths sum to len(reqs), and a
// shard that receives nothing gets nil.
//
// Partition reorders the caller's slice: the sub-traces are
// capacity-clipped windows of reqs itself, laid out in shard order, so
// appending to one reallocates it rather than overwriting its neighbour.
// It is one stable forward pass (partitionInPlace) whose extra memory is
// the requests waiting for their slot, not a second copy of the trace.
func (r *Router) Partition(reqs []workload.Request) [][]workload.Request {
	out := make([][]workload.Request, r.Shards())
	shard := make([]int32, len(reqs))
	counts := make([]int, len(out))
	for i := range reqs {
		s := r.route(&reqs[i])
		shard[i] = int32(s)
		counts[s]++
	}
	partitionInPlace(reqs, shard, counts)
	lo := 0
	for s, n := range counts {
		if n > 0 {
			out[s] = reqs[lo : lo+n : lo+n]
		}
		lo += n
	}
	return out
}

// chunkLen is the request count of one FIFO chunk: large enough that chunk
// bookkeeping is noise, small enough that the few partial chunks cost
// little next to the waiting requests.
const chunkLen = 1024

// partitionInPlace stably moves every request to its shard's region of
// reqs (shard s owns counts[s] slots after the regions of shards < s) in
// one forward pass. Reading slot i vacates it, and a slot is written only
// after it has been read. A request whose slot is behind the read cursor
// is written at once; one whose slot is ahead waits in its shard's FIFO
// until the cursor reaches that slot. A shard's waiting requests hold the
// last slots it has assigned, all at or past the cursor, so whenever the
// FIFO of the region containing slot i is non-empty, its head owns slot
// i: any earlier slot of the region went to a request read before the
// head and written at once, so it lies behind the cursor. The FIFOs draw
// fixed-size chunks from one shared free list, so the extra memory is the
// most requests ever waiting at once (about n/4 for balanced 8-way
// routing) plus a few partial chunks.
func partitionInPlace(reqs []workload.Request, shard []int32, counts []int) {
	next := make([]int, len(counts)) // each shard's next unassigned slot
	lo := 0
	for s, n := range counts {
		next[s] = lo
		lo += n
	}
	q := make([]fifo, len(counts))
	var free [][]workload.Request
	r, end := 0, counts[0]
	for i := range reqs {
		x := reqs[i]
		s := shard[i]
		if d := next[s]; d <= i {
			reqs[d] = x
		} else {
			q[s].push(x, &free)
		}
		next[s]++
		for i >= end {
			r++
			end += counts[r]
		}
		if f := &q[r]; f.n > 0 {
			reqs[i] = f.pop(&free)
		}
	}
}

// fifo is one shard's queue of waiting requests: chunks[0][head:] through
// the last chunk's first tail entries.
type fifo struct {
	chunks     [][]workload.Request
	head, tail int
	n          int
}

func (f *fifo) push(x workload.Request, free *[][]workload.Request) {
	if len(f.chunks) == 0 || f.tail == chunkLen {
		var c []workload.Request
		if k := len(*free); k > 0 {
			c = (*free)[k-1]
			*free = (*free)[:k-1]
		} else {
			c = make([]workload.Request, chunkLen)
		}
		f.chunks = append(f.chunks, c)
		f.tail = 0
	}
	f.chunks[len(f.chunks)-1][f.tail] = x
	f.tail++
	f.n++
}

func (f *fifo) pop(free *[][]workload.Request) workload.Request {
	x := f.chunks[0][f.head]
	f.head++
	f.n--
	if f.head == chunkLen {
		*free = append(*free, f.chunks[0])
		f.chunks = f.chunks[1:]
		f.head = 0
	}
	return x
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
