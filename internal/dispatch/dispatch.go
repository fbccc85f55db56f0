// Package dispatch implements Hetis' online head-wise dispatching (§5.2)
// and re-dispatching (§5.3). It is the stateful placement manager for
// decode-attention loads within one serving instance: for every request it
// decides how many query heads each device computes, subject to per-device
// KV-cache capacity, by solving the min–max linear program of Eq. 7 with
// the profiled linear models of Eq. 3 and Eq. 4.
//
// Units: head counts are query heads per layer (placement is uniform
// across layers); cache loads g and capacities M are bytes per layer.
//
// Loads are exact integers: a share of a request's heads adds its whole
// head groups' bytes, groups × KVBytesPerTokenHeadGroup, per token, so h
// and g are int64 and convert to float only where the Eq. 3/4/7 times and
// CacheBytes are formed. Float sums of integers below 2^53 are exact, so
// every time formed from them is the one a float-held load gave.
package dispatch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"hetis/internal/hardware"
	"hetis/internal/lp"
	"hetis/internal/model"
	"hetis/internal/profile"
)

// RequestID identifies a request within the dispatcher.
type RequestID = int64

// Worker is one device participating in decode attention.
type Worker struct {
	ID   hardware.DeviceID
	Attn profile.AttnModel
	// Net is the transfer model to this worker from the stage's primary;
	// ignored for Primary workers (no scatter needed).
	Net profile.NetModel
	// Primary marks devices that also run dense modules. Heads placed on
	// the primary pay no network cost.
	Primary bool
	// CapacityBytes is the per-layer KV budget (r·Mᵢ/2 in the paper's
	// notation, already converted to bytes by the caller).
	CapacityBytes float64
}

// Dispatcher tracks the head placement of all in-flight requests.
type Dispatcher struct {
	cfg     model.Config
	workers []Worker

	h []int64 // heads per worker (per layer)
	g []int64 // cache bytes per worker (per layer)
	// rate is each worker's decode rate: the bytes one token of every
	// tracked request adds there, the sum of the live shares' bytes.
	rate []int64
	// clock counts Advance steps. A record's context is its base plus the
	// clock, so a step moves every context without touching a record;
	// baseSum sums the live records' bases.
	clock   int
	baseSum int64

	// recs is the per-request record table, dense in no particular order
	// (release swap-removes), so whole-population walks read a slice;
	// byID indexes it for the id-keyed API.
	recs []*Slot
	byID map[RequestID]*Slot
	// slab and shareSlab are the unused tails of the chunks new records
	// and their shares are carved from.
	slab      []Slot
	shareSlab []Share
	// overLimit is each worker's overflow threshold: a load g overflows
	// when g > overLimit, the integer form of g > CapacityBytes + 1e-6.
	overLimit []int64
	// stepE and stepF are StepOverflow's per-worker scratch.
	stepE, stepF []int64

	// perHeadTokenBytes converts (heads × tokens) to per-layer bytes:
	// KVBytesPerTokenHeadGroup / r.
	perHeadTokenBytes float64

	// scatterBytesPerHead is Eq. 4's d(t) volume per head: (2+2/r) head
	// activations.
	scatterBytesPerHead float64

	// policy selects LP or greedy placement for new requests.
	policy Policy

	// Dispatches and Redispatches count solver invocations.
	Dispatches, Redispatches int

	// LPSolves counts placement simplex solves; LPSolvesAvoided counts
	// §5.3.1 relaxations skipped by the lower-bound test.
	LPSolves, LPSolvesAvoided int
	// LPSolveSeconds accumulates wall-clock spent posing and solving
	// placement LPs, so the benchmark can report the LP layer's
	// share of engine time directly.
	LPSolveSeconds float64

	// prob is the Eq. 7 placement LP, posed once at construction and
	// rewritten in place by every solve (see posePlacement); row is its
	// row-building scratch.
	prob *lp.Problem
	row  []float64

	// relax is the §5.3.1 relaxation's per-worker cost table in sweep
	// order, fixed at construction (it depends only on the workers).
	relax relaxation
	// lens and buckets are IdealAttnTime's context-length and bucket
	// scratch; scratch and rems are solvePlacement's rounding scratch.
	lens    []int
	buckets []bucket
	scratch []float64
	rems    []remainder
}

// Slot is one tracked request's record — its context length and
// per-worker head placement — and a stable handle to it. A caller that
// holds the *Slot (the engine caches it on the running request) extends the
// request's context with ExtendSlot and walks its Shares without a hash
// lookup. The handle goes stale once the record is released: Remove, Clear,
// and every re-placement (a redispatch commits a fresh record). Released
// records are never reused, so a stale handle can only be detected, never
// alias another request; Resolve refreshes one by id.
type Slot struct {
	id    RequestID
	base  int   // context length minus the owner's clock
	place []int // heads per worker index (multiples of r)
	// shares lists the workers holding heads, ascending, with the bytes one
	// token adds on each: the per-token update touches only those.
	shares []Share
	// idx is the record's position in its dispatcher's table, -1 once
	// released.
	idx   int
	owner *Dispatcher
}

// Shares lists the workers holding the slot's heads, in ascending worker
// order (the owner's table; read-only).
func (s *Slot) Shares() []Share { return s.shares }

// ctx is the slot's context length.
func (s *Slot) ctx() int { return s.base + s.owner.clock }

// Share is one worker's part of a slot's placement: the worker index and
// the per-layer bytes one token adds there, groups ×
// KVBytesPerTokenHeadGroup.
type Share struct {
	Worker int
	bytes  int64
}

// New creates a dispatcher for the model over the given workers. Every
// fitted slope (Attn.A, Attn.B, Net.Gamma) must be nonnegative: the
// §5.3.1 relaxation's exact solver and its lower bound rely on it.
func New(cfg model.Config, workers []Worker) (*Dispatcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("dispatch: no workers")
	}
	hasPrimary := false
	for _, w := range workers {
		if w.Primary {
			hasPrimary = true
		}
		if w.CapacityBytes < 0 {
			return nil, fmt.Errorf("dispatch: worker %d has negative capacity", w.ID)
		}
		if !(w.Attn.A >= 0 && w.Attn.B >= 0 && w.Net.Gamma >= 0) {
			return nil, fmt.Errorf("dispatch: worker %d has a negative or NaN slope (A %g, B %g, Gamma %g)",
				w.ID, w.Attn.A, w.Attn.B, w.Net.Gamma)
		}
	}
	if !hasPrimary {
		return nil, fmt.Errorf("dispatch: at least one worker must be primary")
	}
	r := float64(cfg.GroupRatio())
	n := len(workers)
	d := &Dispatcher{
		cfg:                 cfg,
		workers:             workers,
		h:                   make([]int64, n),
		g:                   make([]int64, n),
		rate:                make([]int64, n),
		overLimit:           make([]int64, n),
		stepE:               make([]int64, n),
		stepF:               make([]int64, n),
		byID:                make(map[RequestID]*Slot),
		perHeadTokenBytes:   float64(cfg.KVBytesPerTokenHeadGroup()) / r,
		scatterBytesPerHead: (2 + 2/r) * float64(cfg.QHeadBytes()),
	}
	d.relax = newRelaxation(workers, d.scatterBytesPerHead, d.perHeadTokenBytes)
	for i, w := range workers {
		// For an integer g, g > x ⇔ g > ⌊x⌋.
		d.overLimit[i] = int64(math.Floor(w.CapacityBytes + 1e-6))
	}
	// Variables x₀…x_{n−1} (heads per worker), then z; rows: n epigraph, n
	// capacity, 1 conservation, stated by posePlacement.
	obj := make([]float64, n+1)
	obj[n] = 1 // min z
	d.prob = lp.New(n+1, obj)
	for k := 0; k < 2*n+1; k++ {
		d.prob.AddConstraint(nil, lp.LE, 0)
	}
	d.row = make([]float64, n+1)
	return d, nil
}

// NumWorkers returns the worker count.
func (d *Dispatcher) NumWorkers() int { return len(d.workers) }

// Workers exposes the worker table (read-only).
func (d *Dispatcher) Workers() []Worker { return d.workers }

// Requests returns the tracked request IDs in ascending order.
func (d *Dispatcher) Requests() []RequestID {
	ids := make([]RequestID, 0, len(d.recs))
	for _, s := range d.recs {
		ids = append(ids, s.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Len is the number of tracked requests.
func (d *Dispatcher) Len() int { return len(d.recs) }

// Heads returns h_i for worker index i.
func (d *Dispatcher) Heads(i int) float64 { return float64(d.h[i]) }

// CacheBytes returns g_i for worker index i.
func (d *Dispatcher) CacheBytes(i int) float64 { return float64(d.g[i]) }

// PlacementView returns request id's per-worker head counts without
// copying, or nil. The slice is owned by the dispatcher and valid until
// the request is re-placed or removed; callers must treat it as
// read-only and clone it to keep a copy.
func (d *Dispatcher) PlacementView(id RequestID) []int {
	if s, ok := d.byID[id]; ok {
		return s.place
	}
	return nil
}

// ContextLen returns the tracked context length of a request.
func (d *Dispatcher) ContextLen(id RequestID) int {
	if s, ok := d.byID[id]; ok {
		return s.ctx()
	}
	return 0
}

// Resolve returns s when it is still request id's live record in this
// dispatcher, and otherwise looks id up afresh (nil when id is untracked).
// The check is a few compares, so callers resolve a cached handle before
// every use and pay the lookup only after the handle went stale.
func (d *Dispatcher) Resolve(s *Slot, id RequestID) *Slot {
	if s != nil && s.owner == d && s.idx >= 0 && s.id == id {
		return s
	}
	return d.byID[id]
}

// NewRequest describes a request to place.
type NewRequest struct {
	ID         RequestID
	ContextLen int // tokens already cached (prompt length at admission)
}

// fWorkerAt evaluates f_i of Eq. 7 for worker i at explicit loads.
func (d *Dispatcher) fWorkerAt(i int, heads, bytes float64) float64 {
	w := &d.workers[i]
	if heads <= 0 {
		return 0
	}
	t := w.Attn.A*heads + w.Attn.B*bytes + w.Attn.C
	if !w.Primary {
		t += w.Net.Gamma*d.scatterBytesPerHead*heads + w.Net.Beta
	}
	return t
}

// AttnStepTime is the current per-layer Attention-module time: the maximum
// f_i over workers (the post-attention aggregation waits for the slowest).
func (d *Dispatcher) AttnStepTime() float64 {
	max := 0.0
	for i := range d.workers {
		if t := d.fWorkerAt(i, float64(d.h[i]), float64(d.g[i])); t > max {
			max = t
		}
	}
	return max
}

// Dispatch places one newly admitted request (Eq. 7): it solves the
// min–max LP over the request's heads per worker, rounds head counts to
// whole head groups, and commits the placement (Eq. 8), returning the
// request's record handle. Already-dispatched requests are never
// re-parallelized here.
func (d *Dispatcher) Dispatch(r NewRequest) (*Slot, error) {
	if _, dup := d.byID[r.ID]; dup {
		return nil, fmt.Errorf("dispatch: request %d already placed", r.ID)
	}
	if r.ContextLen < 0 {
		return nil, fmt.Errorf("dispatch: request %d has negative context", r.ID)
	}
	x, err := d.solvePlacement(r)
	if err != nil {
		return nil, err
	}
	d.Dispatches++
	return d.commit(r.ID, r.ContextLen, x), nil
}

// solvePlacement solves the Eq. 7 LP for one request (or runs the greedy
// heuristic under PolicyGreedy) and returns its heads per worker.
//
// The solve is the two-phase simplex from scratch: the min-max placement
// LP is massively degenerate — any head distribution that keeps every
// worker under the binding worker's time is optimal — and only a solve
// that retraces the same pivots is sure to land on the same optimal
// vertex. Placements feed the goldens directly; bit-equality wins.
func (d *Dispatcher) solvePlacement(rq NewRequest) ([]int, error) {
	if d.policy == PolicyGreedy {
		return d.greedyPlacement(rq)
	}
	d.LPSolves++
	//hetis:entropy wall-clock self-profiling; LPSolveSeconds is reporting-only and never feeds placement decisions
	start := time.Now() // the LP layer's cost is posing + solving
	d.posePlacement(rq.ContextLen)
	res, err := d.prob.Solve()
	d.LPSolveSeconds += time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("dispatch: placement LP: %w", err)
	}

	// Round to whole head groups by largest remainder, then repair any
	// capacity violation by shifting groups to workers with slack.
	nW := len(d.workers)
	r := d.cfg.GroupRatio()
	used, frac, caps := d.roundScratch(nW)
	for i, w := range d.workers {
		used[i] = float64(d.g[i])
		caps[i] = w.CapacityBytes
		frac[i] = res.X[i] / float64(r)
	}
	x := make([]int, nW)
	d.rems = roundLargestRemainder(frac, d.cfg.KVHeads, x, d.rems)
	perGroupBytes := d.perHeadTokenBytes * float64(rq.ContextLen) * float64(r)
	if err := repairCapacity(x, used, caps, perGroupBytes); err != nil {
		return nil, fmt.Errorf("dispatch: request %d: %w", rq.ID, err)
	}
	for i := range x {
		x[i] *= r
	}
	return x, nil
}

// posePlacement states the Eq. 7 LP for one request of context ctx into
// the dispatcher's problem, rewriting every row in place.
func (d *Dispatcher) posePlacement(ctx int) {
	nW := len(d.workers)
	row := d.row
	k := 0
	emit := func(op lp.Op, rhs float64) {
		d.prob.SetConstraint(k, row, op, rhs)
		k++
	}

	// (7a) epigraph: f_i(x) − z ≤ 0 for every worker.
	for i := range d.workers {
		w := &d.workers[i]
		clear(row)
		slopeHeads := w.Attn.A
		if !w.Primary {
			slopeHeads += w.Net.Gamma * d.scatterBytesPerHead
		}
		row[i] = slopeHeads + w.Attn.B*d.perHeadTokenBytes*float64(ctx)
		row[nW] = -1
		h, g := float64(d.h[i]), float64(d.g[i])
		fixed := w.Attn.A*h + w.Attn.B*g + w.Attn.C
		if !w.Primary {
			fixed += w.Net.Gamma*d.scatterBytesPerHead*h + w.Net.Beta
		}
		emit(lp.LE, -fixed)
	}

	// (7b) capacity: g_i + bytes(x_i) ≤ M_i.
	for i := range d.workers {
		clear(row)
		row[i] = d.perHeadTokenBytes * float64(ctx)
		emit(lp.LE, d.workers[i].CapacityBytes-float64(d.g[i]))
	}

	// (7c) head conservation: Σ_i x_i = H.
	clear(row)
	for i := 0; i < nW; i++ {
		row[i] = 1
	}
	emit(lp.EQ, float64(d.cfg.Heads))
}

// roundScratch returns solvePlacement's per-worker scratch: loads, group
// fractions and capacities, nW long each.
func (d *Dispatcher) roundScratch(nW int) (used, frac, caps []float64) {
	if len(d.scratch) != 3*nW {
		d.scratch = make([]float64, 3*nW)
	}
	return d.scratch[:nW], d.scratch[nW : 2*nW], d.scratch[2*nW:]
}

// remainder is one worker's fractional group share left after flooring.
type remainder struct {
	idx int
	f   float64
}

// roundLargestRemainder converts fractional group shares to integers
// summing to total, written to out (len(frac) long). rems is sorting
// scratch, returned for reuse.
func roundLargestRemainder(frac []float64, total int, out []int, rems []remainder) []remainder {
	sum := 0
	rems = rems[:0]
	for i, f := range frac {
		if f < 0 {
			f = 0
		}
		out[i] = int(f)
		sum += out[i]
		rems = append(rems, remainder{i, f - float64(out[i])})
	}
	// Largest remainder first, ties to the smaller index: a total order,
	// so any sort gives the same result.
	slices.SortFunc(rems, func(a, b remainder) int {
		if c := cmp.Compare(b.f, a.f); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for k := 0; sum < total && k < len(rems); k++ {
		out[rems[k].idx]++
		sum++
	}
	// Over-allocation can only happen via float noise; trim from smallest
	// remainders.
	for k := len(rems) - 1; sum > total && k >= 0; k-- {
		i := rems[k].idx
		if out[i] > 0 {
			out[i]--
			sum--
		}
	}
	return rems
}

// repairCapacity shifts groups away from workers whose usage would exceed
// capacity, to workers with slack (cheapest-first by current usage ratio).
func repairCapacity(groups []int, used, caps []float64, perGroupBytes float64) error {
	if perGroupBytes <= 0 {
		return nil
	}
	for i := range groups {
		for groups[i] > 0 && used[i]+float64(groups[i])*perGroupBytes > caps[i]+1e-6 {
			// Find the worker with the most absolute slack.
			best := -1
			var bestSlack float64
			for k := range groups {
				if k == i {
					continue
				}
				slack := caps[k] - used[k] - float64(groups[k])*perGroupBytes
				if slack >= perGroupBytes && slack > bestSlack {
					bestSlack = slack
					best = k
				}
			}
			if best == -1 {
				return fmt.Errorf("no capacity to place head group (need %.0f bytes)", perGroupBytes)
			}
			groups[i]--
			groups[best]++
		}
	}
	return nil
}

// slotSlabChunk is the number of records carved per allocation. Records
// are never reused, so the chunking only amortizes the allocator.
const slotSlabChunk = 64

// commit applies a placement in a fresh record and updates h, g (Eq. 8)
// and the decode rates, returning the record.
func (d *Dispatcher) commit(id RequestID, ctxLen int, x []int) *Slot {
	if len(d.slab) == 0 {
		d.slab = make([]Slot, slotSlabChunk)
	}
	s := &d.slab[0]
	d.slab = d.slab[1:]
	nz := 0
	for _, heads := range x {
		if heads != 0 {
			nz++
		}
	}
	if len(d.shareSlab) < nz {
		d.shareSlab = make([]Share, max(nz, slotSlabChunk*len(d.workers)/2))
	}
	*s = Slot{id: id, base: ctxLen - d.clock, place: x, shares: d.shareSlab[:0:nz], idx: len(d.recs), owner: d}
	d.shareSlab = d.shareSlab[nz:]
	d.recs = append(d.recs, s)
	d.byID[id] = s
	d.baseSum += int64(s.base)
	groupBytes := d.cfg.KVBytesPerTokenHeadGroup()
	r := int64(d.cfg.GroupRatio())
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		bytes := int64(heads) * groupBytes / r
		s.shares = append(s.shares, Share{Worker: i, bytes: bytes})
		d.h[i] += int64(heads)
		d.g[i] += bytes * int64(ctxLen)
		d.rate[i] += bytes
	}
	return s
}

// release removes a request's load without forgetting which devices to
// subtract from.
func (d *Dispatcher) release(id RequestID) {
	s, ok := d.byID[id]
	if !ok {
		return
	}
	ctx := int64(s.ctx())
	for _, sh := range s.shares {
		d.h[sh.Worker] -= int64(s.place[sh.Worker])
		d.g[sh.Worker] -= sh.bytes * ctx
		d.rate[sh.Worker] -= sh.bytes
	}
	d.baseSum -= int64(s.base)
	last := d.recs[len(d.recs)-1]
	last.idx = s.idx
	d.recs[s.idx] = last
	d.recs[len(d.recs)-1] = nil
	d.recs = d.recs[:len(d.recs)-1]
	s.idx = -1
	delete(d.byID, id)
}

// Remove drops a finished (or evicted) request.
func (d *Dispatcher) Remove(id RequestID) { d.release(id) }

// Clear drops every tracked request, returning the dispatcher to its
// empty state — the whole-instance teardown a replica failure needs.
func (d *Dispatcher) Clear() {
	for _, s := range d.recs {
		s.idx = -1
	}
	clear(d.recs)
	d.recs = d.recs[:0]
	clear(d.byID)
	clear(d.h)
	clear(d.g)
	clear(d.rate)
	d.baseSum = 0
}

// ExtendSlot grows one request by n freshly generated tokens through its
// record handle, increasing g on every device holding its heads: it sets
// over[i] for every worker i whose capacity the growth overflows and
// leaves the other flags alone. A stale handle is an error (see Resolve).
func (d *Dispatcher) ExtendSlot(s *Slot, n int, over []bool) error {
	if s == nil || s.owner != d || s.idx < 0 {
		return fmt.Errorf("dispatch: stale request handle")
	}
	if n < 0 {
		return fmt.Errorf("dispatch: negative extension %d", n)
	}
	s.base += n
	d.baseSum += int64(n)
	for _, sh := range s.shares {
		d.g[sh.Worker] += sh.bytes * int64(n)
		if d.g[sh.Worker] > d.overLimit[sh.Worker] {
			over[sh.Worker] = true
		}
	}
	return nil
}

// Advance grows every tracked request by one token in O(workers): each
// worker's load gains its decode rate, and the clock moves every context.
// It is ExtendSlot(s, 1) on every record, in any order.
func (d *Dispatcher) Advance() {
	for i, r := range d.rate {
		d.g[i] += r
	}
	d.clock++
}

// StepOverflow decides, before a decode step, which workers the step's
// per-request loop would find over capacity, without walking the batch.
// In that loop every finishing request is released and every other
// tracked request extended by one token, in batch order, and worker i is
// flagged when its load exceeds the limit right after an extension there.
// finishing lists the records of the requests that finish (each once);
// every other tracked request counts as extended.
//
// Each worker's loads over the loop lie between its final load lo (all
// releases, all extensions) and hi (the extensions alone). When lo is over
// the limit the last extension there is too; when hi is not, nothing is.
// A worker no extension touches is never flagged; only finishers hold
// load there, so its lo is 0. Otherwise the answer depends on the batch
// order: StepOverflow returns false, leaving over alone, and the caller
// must run the per-request loop. On true, over[i] holds worker i's flag.
func (d *Dispatcher) StepOverflow(finishing []*Slot, over []bool) bool {
	e, f := d.stepE, d.stepF
	copy(e, d.rate)
	clear(f)
	for _, s := range finishing {
		ctx := int64(s.ctx())
		for _, sh := range s.shares {
			e[sh.Worker] -= sh.bytes
			f[sh.Worker] += sh.bytes * ctx
		}
	}
	for i, lim := range d.overLimit {
		if hi := d.g[i] + e[i]; e[i] != 0 && hi > lim && hi-f[i] <= lim {
			return false
		}
	}
	for i, lim := range d.overLimit {
		over[i] = d.g[i]+e[i]-f[i] > lim
	}
	return true
}

// idealBuckets bounds the size of IdealAttnTime's relaxation: requests are
// grouped into this many context-length buckets. Requests of equal context
// length merge exactly (the relaxation is scale-invariant in the
// head-conservation constraint), so bucketing only rounds lengths within a
// bucket.
const idealBuckets = 24

// IdealAttnTime solves the §5.3.1 relaxation: the best achievable max f_i
// if ALL current requests could be re-placed freely, subject to the
// aggregate capacity constraint. Returns 0 when idle. The value is exact
// to 1e-12 relative (see relaxation) and a function of the tracked loads
// alone.
func (d *Dispatcher) IdealAttnTime() (float64, error) {
	if len(d.recs) == 0 {
		return 0, nil
	}
	d.lens = d.lens[:0]
	for _, s := range d.recs {
		d.lens = append(d.lens, s.ctx())
	}
	d.buckets = bucketByContext(d.buckets[:0], d.lens, idealBuckets)
	return d.idealAttn(d.buckets)
}

// idealAttn evaluates the relaxation over the given (non-empty) buckets.
func (d *Dispatcher) idealAttn(buckets []bucket) (float64, error) {
	// Under head conservation the aggregate capacity row's load is a
	// constant — every bucket's heads land somewhere — so it is one test.
	heads := float64(d.cfg.Heads)
	var demand, capacity float64
	for _, b := range buckets {
		demand += d.perHeadTokenBytes * b.ctx * heads * float64(b.count)
	}
	for _, w := range d.workers {
		capacity += w.CapacityBytes
	}
	if demand > capacity {
		return 0, fmt.Errorf("dispatch: ideal relaxation: KV demand %.0f bytes exceeds total capacity %.0f", demand, capacity)
	}
	return d.relax.solve(buckets, heads), nil
}

// lbSafety shaves the certified lower bound by a relative margin so
// floating-point slack in either the bound's accumulation or the
// relaxation's solve can never push the bound above the computed optimum.
// The bound is coarse (typically well below the optimum), so the shave
// costs nothing; it only guards the degenerate near-tight case.
const lbSafety = 1 - 1e-9

// idealLowerBound is a certified O(workers) lower bound on IdealAttnTime's
// optimum, from weak duality over aggregate totals. The relaxation's
// epigraph constraints give z ≥ a_i·H_i + b_i·G_i + c_i for every worker
// (so z ≥ max_i c_i outright); averaging them with weights 1/a_i
// telescopes the head terms to the conserved head total, and with weights
// 1/b_i to the byte total:
//
//	z ≥ (ΣH + Σ c_i/a_i) / Σ(1/a_i)    z ≥ (ΣG + Σ c_i/b_i) / Σ(1/b_i)
//
// A zero slope disables the corresponding bound (that worker could absorb
// load free, so the average certifies nothing). Returns 0 when no bound
// applies.
func (d *Dispatcher) idealLowerBound() float64 {
	n := len(d.recs)
	if n == 0 {
		return 0
	}
	headTot := float64(d.cfg.Heads) * float64(n)
	ctxTot := d.baseSum + int64(n)*int64(d.clock)
	byteTot := float64(ctxTot) * d.perHeadTokenBytes * float64(d.cfg.Heads)

	var maxFixed float64
	headOK, byteOK := true, true
	var invA, fixedOverA, invB, fixedOverB float64
	for i := range d.workers {
		w := d.workers[i]
		a := w.Attn.A
		fixed := w.Attn.C
		if !w.Primary {
			a += w.Net.Gamma * d.scatterBytesPerHead
			fixed += w.Net.Beta
		}
		if fixed > maxFixed {
			maxFixed = fixed
		}
		if a > 0 {
			invA += 1 / a
			fixedOverA += fixed / a
		} else {
			// A zero slope lets this worker absorb that resource free; the
			// averaged bound over it certifies nothing.
			headOK = false
		}
		if w.Attn.B > 0 {
			invB += 1 / w.Attn.B
			fixedOverB += fixed / w.Attn.B
		} else {
			byteOK = false
		}
	}
	lb := maxFixed
	if headOK && invA > 0 {
		if v := (headTot + fixedOverA) / invA; v > lb {
			lb = v
		}
	}
	if byteOK && invB > 0 {
		if v := (byteTot + fixedOverB) / invB; v > lb {
			lb = v
		}
	}
	return lb * lbSafety
}

// bucket aggregates requests with similar context lengths for the ideal
// relaxation.
type bucket struct {
	ctx   float64 // mean context length of the bucket
	count int
}

// bucketByContext groups context lengths (sorted in place) into at most n
// buckets of similar length, in ascending context order, appended to out.
func bucketByContext(out []bucket, lens []int, n int) []bucket {
	slices.Sort(lens)
	if n > len(lens) {
		n = len(lens)
	}
	per := (len(lens) + n - 1) / n
	for start := 0; start < len(lens); start += per {
		end := start + per
		if end > len(lens) {
			end = len(lens)
		}
		sum := 0
		for _, l := range lens[start:end] {
			sum += l
		}
		out = append(out, bucket{ctx: float64(sum) / float64(end-start), count: end - start})
	}
	return out
}

// Redispatch is the outcome of one §5.3 rebalancing action.
type Redispatch struct {
	Request RequestID
	Old     []int // heads per worker before
	New     []int // heads per worker after
	// MovedHeads is the number of heads that changed device.
	MovedHeads int
}

// RebalanceCompute implements §5.3.1: if the current Attention time exceeds
// the ideal by more than theta (fractional, default 0.5), re-dispatch the
// single request contributing most to the bottleneck device. Requests for
// which `frozen` reports true are skipped (the engine freezes recently
// migrated requests to damp ping-pong, the role of the paper's Θ stop
// condition); a nil `frozen` freezes none. Returns nil when no action is
// needed.
func (d *Dispatcher) RebalanceCompute(theta float64, frozen func(RequestID) bool) (*Redispatch, error) {
	if len(d.recs) == 0 {
		return nil, nil
	}
	current := d.AttnStepTime()
	// Cheap pre-test: if current is already within 1+theta of a certified
	// lower bound on the relaxation's optimum, the true ideal cannot
	// justify a redispatch either — skip the solve (the common
	// balanced-steady-state outcome; lb ≤ ideal and current ≤ lb·(1+θ) ⇒
	// current ≤ ideal·(1+θ), exactly the no-action branch below).
	if theta >= 0 {
		if lb := d.idealLowerBound(); lb > 0 && current <= lb*(1+theta) {
			d.LPSolvesAvoided++
			return nil, nil
		}
	}
	ideal, err := d.IdealAttnTime()
	if err != nil {
		return nil, err
	}
	if ideal > 0 && current > ideal*(1+theta) {
		return d.redispatchBottleneck(frozen)
	}
	return nil, nil
}

// redispatchBottleneck performs the §5.3.1 action: re-dispatch the
// unfrozen request contributing most to the bottleneck device.
func (d *Dispatcher) redispatchBottleneck(frozen func(RequestID) bool) (*Redispatch, error) {
	// Bottleneck device.
	bott := 0
	maxT := -1.0
	for i := range d.workers {
		if t := d.fWorkerAt(i, float64(d.h[i]), float64(d.g[i])); t > maxT {
			maxT = t
			bott = i
		}
	}
	// Request with the largest positive contribution to the bottleneck:
	// heads × per-head cost + bytes × per-byte cost, ties to the smallest
	// ID — the request a walk in ID order keeping the first strict maximum
	// would pick, found without sorting the table.
	w := d.workers[bott]
	var victim *Slot
	var maxContrib float64
	for _, s := range d.recs {
		heads := float64(s.place[bott])
		if heads == 0 || frozen != nil && frozen(s.id) {
			continue
		}
		contrib := w.Attn.A*heads + w.Attn.B*heads*d.perHeadTokenBytes*float64(s.ctx())
		if contrib > maxContrib || (victim != nil && contrib == maxContrib && s.id < victim.id) {
			maxContrib = contrib
			victim = s
		}
	}
	if victim == nil {
		return nil, nil
	}
	return d.redispatchRequest(victim.id)
}

// redispatchRequest removes the request's load and re-places it via Eq. 7.
// old views the released record's placement without a copy: a released
// record is never reused and no placement is written after its commit, so
// the view stays valid for the rollback commit and for Redispatch.Old.
func (d *Dispatcher) redispatchRequest(id RequestID) (*Redispatch, error) {
	old := d.PlacementView(id)
	ctx := d.ContextLen(id)
	d.release(id)
	x, err := d.solvePlacement(NewRequest{ID: id, ContextLen: ctx})
	if err != nil {
		// Roll back to the old placement.
		d.commit(id, ctx, old)
		return nil, err
	}
	d.commit(id, ctx, x)
	d.Redispatches++
	moved := 0
	for i := range x {
		if diff := x[i] - old[i]; diff > 0 {
			moved += diff
		}
	}
	return &Redispatch{Request: id, Old: old, New: x, MovedHeads: moved}, nil
}

// RebalanceMemory implements §5.3.2: when worker idx is memory-exhausted,
// first check whether the cluster as a whole still has slack
// (Σg < ΣM); if so, re-dispatch the device's modified-LIFO victim instead
// of evicting it. latestArrival selects the victim: the request with
// memory on the device that arrived last (the caller supplies arrival
// order via the candidate list, newest first).
func (d *Dispatcher) RebalanceMemory(idx int, newestFirst []RequestID) (*Redispatch, error) {
	if idx < 0 || idx >= len(d.workers) {
		return nil, fmt.Errorf("dispatch: bad worker index %d", idx)
	}
	var sumG, sumM float64
	for i := range d.workers {
		sumG += float64(d.g[i])
		sumM += d.workers[i].CapacityBytes
	}
	if sumG >= sumM {
		return nil, nil // nothing to gain; caller must evict
	}
	for _, id := range newestFirst {
		s, ok := d.byID[id]
		if !ok || s.place[idx] == 0 {
			continue
		}
		rd, err := d.redispatchRequest(id)
		if err != nil {
			continue // try the next victim
		}
		return rd, nil
	}
	return nil, nil
}

// Utilization returns per-worker cache utilization g_i/M_i.
func (d *Dispatcher) Utilization() []float64 {
	out := make([]float64, len(d.workers))
	for i, w := range d.workers {
		if w.CapacityBytes > 0 {
			out[i] = float64(d.g[i]) / w.CapacityBytes
		}
	}
	return out
}

// CheckInvariants validates the record table and the internal accounting
// against the per-request placements.
func (d *Dispatcher) CheckInvariants() error {
	if len(d.byID) != len(d.recs) {
		return fmt.Errorf("dispatch: %d records but %d indexed", len(d.recs), len(d.byID))
	}
	for k, s := range d.recs {
		if s.idx != k || s.owner != d || d.byID[s.id] != s {
			return fmt.Errorf("dispatch: record of request %d at %d is misindexed (idx %d)", s.id, k, s.idx)
		}
	}
	h := make([]int64, len(d.workers))
	g := make([]int64, len(d.workers))
	rate := make([]int64, len(d.workers))
	var baseSum int64
	r := d.cfg.GroupRatio()
	groupBytes := d.cfg.KVBytesPerTokenHeadGroup()
	for _, s := range d.recs {
		baseSum += int64(s.base)
		total, k := 0, 0
		for i, heads := range s.place {
			if heads%r != 0 {
				return fmt.Errorf("dispatch: request %d places %d heads on worker %d (not a multiple of r=%d)", s.id, heads, i, r)
			}
			total += heads
			if heads == 0 {
				continue
			}
			bytes := int64(heads) * groupBytes / int64(r)
			if k >= len(s.shares) || s.shares[k] != (Share{Worker: i, bytes: bytes}) {
				return fmt.Errorf("dispatch: request %d's shares %v disagree with its placement %v", s.id, s.shares, s.place)
			}
			k++
			h[i] += int64(heads)
			g[i] += bytes * int64(s.ctx())
			rate[i] += bytes
		}
		if k != len(s.shares) {
			return fmt.Errorf("dispatch: request %d's shares %v disagree with its placement %v", s.id, s.shares, s.place)
		}
		if total != d.cfg.Heads {
			return fmt.Errorf("dispatch: request %d has %d heads placed, want %d", s.id, total, d.cfg.Heads)
		}
		if s.ctx() < 0 {
			return fmt.Errorf("dispatch: request %d has context %d", s.id, s.ctx())
		}
	}
	if baseSum != d.baseSum {
		return fmt.Errorf("dispatch: context bases sum to %d, tracked %d", baseSum, d.baseSum)
	}
	for i := range d.workers {
		if h[i] != d.h[i] || g[i] != d.g[i] || rate[i] != d.rate[i] {
			return fmt.Errorf("dispatch: worker %d load drift: tracked h %d g %d rate %d, actual %d %d %d",
				i, d.h[i], d.g[i], d.rate[i], h[i], g[i], rate[i])
		}
	}
	return nil
}
