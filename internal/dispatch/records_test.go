package dispatch

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hetis/internal/model"
)

// refRecords is the map-keyed bookkeeping the record table replaced, kept
// as the differential oracle: place/ctxLen maps, per-request float updates
// of h and g with the old release clamps, and the ID-ordered
// first-strict-maximum victim scan of §5.3.1. Its float loads must equal
// the dispatcher's integer ones exactly.
type refRecords struct {
	d      *Dispatcher // worker table and cost constants only
	h, g   []float64
	place  map[RequestID][]int
	ctxLen map[RequestID]int
}

func newRefRecords(d *Dispatcher) *refRecords {
	return &refRecords{
		d:      d,
		h:      make([]float64, len(d.workers)),
		g:      make([]float64, len(d.workers)),
		place:  map[RequestID][]int{},
		ctxLen: map[RequestID]int{},
	}
}

func (r *refRecords) ids() []RequestID {
	ids := make([]RequestID, 0, len(r.place))
	for id := range r.place {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (r *refRecords) commit(id RequestID, ctx int, x []int) {
	r.place[id] = append([]int(nil), x...)
	r.ctxLen[id] = ctx
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		r.h[i] += float64(heads)
		r.g[i] += float64(heads) * r.d.perHeadTokenBytes * float64(ctx)
	}
}

func (r *refRecords) release(id RequestID) {
	x, ok := r.place[id]
	if !ok {
		return
	}
	l := float64(r.ctxLen[id])
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		r.h[i] -= float64(heads)
		r.g[i] -= float64(heads) * r.d.perHeadTokenBytes * l
		if r.h[i] < 1e-9 {
			r.h[i] = 0
		}
		if r.g[i] < 1e-6 {
			r.g[i] = 0
		}
	}
	delete(r.place, id)
	delete(r.ctxLen, id)
}

// replace is a redispatch (or its rollback): release, then re-commit the
// request at its context with placement x.
func (r *refRecords) replace(id RequestID, x []int) {
	ctx := r.ctxLen[id]
	r.release(id)
	r.commit(id, ctx, x)
}

func (r *refRecords) extend(id RequestID, n int) []int {
	x := r.place[id]
	r.ctxLen[id] += n
	var overflow []int
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		r.g[i] += float64(heads) * r.d.perHeadTokenBytes * float64(n)
		if r.g[i] > r.d.workers[i].CapacityBytes+1e-6 {
			overflow = append(overflow, i)
		}
	}
	return overflow
}

// victim is the old redispatchBottleneck choice: walk IDs in ascending
// order and keep the first strict maximum of the bottleneck contribution.
// It reads the bottleneck off the live dispatcher, whose h/g the caller
// has just asserted equal to the reference's.
func (r *refRecords) victim(frozen map[RequestID]bool) RequestID {
	bott, maxT := 0, -1.0
	for i := range r.d.workers {
		if t := r.d.fWorkerAt(i, float64(r.d.h[i]), float64(r.d.g[i])); t > maxT {
			maxT, bott = t, i
		}
	}
	w := r.d.workers[bott]
	var victim RequestID = -1
	var maxContrib float64
	for _, id := range r.ids() {
		if frozen[id] {
			continue
		}
		heads := float64(r.place[id][bott])
		if heads == 0 {
			continue
		}
		contrib := w.Attn.A*heads + w.Attn.B*heads*r.d.perHeadTokenBytes*float64(r.ctxLen[id])
		if contrib > maxContrib {
			maxContrib, victim = contrib, id
		}
	}
	return victim
}

// staleHandle is a record handle taken before its request was released.
type staleHandle struct {
	s  *Slot
	id RequestID
}

// recordsHarness drives a Dispatcher and its reference through one random
// operation sequence.
type recordsHarness struct {
	t       *testing.T
	rng     *rand.Rand
	d       *Dispatcher
	ref     *refRecords
	handles map[RequestID]*Slot
	stale   []staleHandle
	retired []RequestID // removed IDs, re-admitted now and then like an evicted request
	nextID  RequestID
	// staleChecks counts stale-handle assertions, and batchedSteps and
	// perRequestSteps the decode steps StepOverflow admitted and declined,
	// for coverage.
	staleChecks                   int
	batchedSteps, perRequestSteps int
	// batchedFlags counts batched steps that flagged a worker.
	batchedFlags int
}

// retire moves id's held handle to the stale list.
func (x *recordsHarness) retire(id RequestID) {
	if s, ok := x.handles[id]; ok {
		x.stale = append(x.stale, staleHandle{s, id})
		delete(x.handles, id)
	}
}

// handle returns the held handle for id, taking one on first use, and
// asserts a held handle is still live: no operation on another request may
// invalidate it.
func (x *recordsHarness) handle(id RequestID) *Slot {
	s, ok := x.handles[id]
	if !ok {
		s = x.d.Resolve(nil, id)
		x.handles[id] = s
	}
	if got := x.d.Resolve(s, id); got != s {
		x.t.Fatalf("live handle of request %d went stale", id)
	}
	return s
}

func (x *recordsHarness) randomLive() (RequestID, bool) {
	ids := x.ref.ids()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[x.rng.Intn(len(ids))], true
}

// applyRedispatch mirrors a §5.3 action into the reference: every
// candidate tried before the winner was rolled back (release + re-commit
// of its old placement), then the winner moved.
func (x *recordsHarness) applyRedispatch(rolledBack []RequestID, rd *Redispatch) {
	for _, id := range rolledBack {
		x.ref.replace(id, x.ref.place[id])
		x.retire(id)
	}
	if rd == nil {
		return
	}
	if !reflect.DeepEqual(rd.Old, x.ref.place[rd.Request]) {
		x.t.Fatalf("redispatch of %d reports old placement %v, reference has %v", rd.Request, rd.Old, x.ref.place[rd.Request])
	}
	x.ref.replace(rd.Request, rd.New)
	x.retire(rd.Request)
}

func (x *recordsHarness) step(op int) {
	t, rng, d, ref := x.t, x.rng, x.d, x.ref
	switch op {
	case 0, 1: // admit a few requests, sometimes re-admitting a removed ID
		seen := map[RequestID]bool{}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			id := x.nextID
			if len(x.retired) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(x.retired))
				id = x.retired[j]
				x.retired = append(x.retired[:j], x.retired[j+1:]...)
			} else {
				x.nextID++
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			// Contexts on a coarse grid make equal bottleneck
			// contributions common, so the victim tie-break is exercised.
			rq := NewRequest{ID: id, ContextLen: 16 + 128*rng.Intn(24)}
			s, err := d.Dispatch(rq)
			if err != nil {
				x.retired = append(x.retired, id)
				continue
			}
			ref.commit(id, rq.ContextLen, s.place)
		}
	case 2, 3: // extend by id
		id, ok := x.randomLive()
		if !ok {
			return
		}
		n := 16 * rng.Intn(4)
		got, err := extendByID(d, id, n)
		if err != nil {
			t.Fatalf("extend %d: %v", id, err)
		}
		if want := ref.extend(id, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("extend %d overflow %v, reference %v", id, got, want)
		}
	case 4, 5: // extend every live request by one token through its handle
		over := make([]bool, d.NumWorkers())
		for _, id := range ref.ids() {
			clear(over)
			if err := d.ExtendSlot(x.handle(id), 1, over); err != nil {
				t.Fatalf("ExtendSlot(%d): %v", id, err)
			}
			if got, want := flagged(over), ref.extend(id, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("ExtendSlot(%d) overflow %v, reference %v", id, got, want)
			}
		}
	case 6, 11: // one decode step: some requests finish, the rest advance
		x.decodeStep()
	case 7: // §5.3.1 compute rebalance
		frozen := map[RequestID]bool{}
		for _, id := range ref.ids() {
			if rng.Intn(4) == 0 {
				frozen[id] = true
			}
		}
		victim := ref.victim(frozen)
		rd, err := d.RebalanceCompute([]float64{0, 0.1, 0.5}[rng.Intn(3)], func(id RequestID) bool { return frozen[id] })
		switch {
		case rd != nil:
			if rd.Request != victim {
				t.Fatalf("redispatched %d, reference victim %d", rd.Request, victim)
			}
			x.applyRedispatch(nil, rd)
		case err != nil && !strings.Contains(err.Error(), "ideal"):
			// The victim's re-placement failed and was rolled back.
			x.applyRedispatch([]RequestID{victim}, nil)
		}
	case 8: // §5.3.2 memory rebalance
		idx := rng.Intn(d.NumWorkers())
		cands := ref.ids()
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		var sumG, sumM float64
		for i := range d.workers {
			sumG += ref.g[i]
			sumM += d.workers[i].CapacityBytes
		}
		rd, err := d.RebalanceMemory(idx, cands)
		if err != nil {
			t.Fatalf("RebalanceMemory: %v", err)
		}
		if sumG >= sumM {
			if rd != nil {
				t.Fatalf("RebalanceMemory acted on a full cluster")
			}
			return
		}
		var tried []RequestID
		for _, id := range cands {
			if ref.place[id][idx] == 0 {
				continue
			}
			if rd != nil && id == rd.Request {
				break
			}
			tried = append(tried, id)
		}
		x.applyRedispatch(tried, rd)
	case 9: // remove
		id, ok := x.randomLive()
		if !ok {
			return
		}
		d.Remove(id)
		ref.release(id)
		x.retire(id)
		x.retired = append(x.retired, id)
	case 10: // clear the instance (rare)
		if rng.Intn(4) != 0 {
			return
		}
		for _, id := range ref.ids() {
			ref.release(id)
			x.retire(id)
			x.retired = append(x.retired, id)
		}
		d.Clear()
	}
}

// flagged lists the set flags' worker indices, ascending (nil for none).
func flagged(over []bool) []int {
	var out []int
	for i, o := range over {
		if o {
			out = append(out, i)
		}
	}
	return out
}

// decodeStep runs one engine decode step over the live requests in a
// random batch order, a random subset finishing. The reference walks the
// batch per request — releasing a finisher, extending the rest by one
// token — and flags every worker an extension overflowed. The dispatcher
// takes the batched step StepOverflow admits (releases, then one Advance)
// or, when StepOverflow declines, the same per-request walk; either way
// loads, contexts and the flagged workers must match exactly.
func (x *recordsHarness) decodeStep() {
	t, rng, d, ref := x.t, x.rng, x.d, x.ref
	batch := ref.ids()
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	finish := map[RequestID]bool{}
	var finishing []*Slot
	for _, id := range batch {
		if rng.Intn(3) == 0 {
			finish[id] = true
			finishing = append(finishing, x.handle(id))
		}
	}
	var want []int
	for _, id := range batch {
		if finish[id] {
			ref.release(id)
			continue
		}
		for _, w := range ref.extend(id, 1) {
			if !slices.Contains(want, w) {
				want = append(want, w)
			}
		}
	}
	slices.Sort(want)
	over := make([]bool, d.NumWorkers())
	if d.StepOverflow(finishing, over) {
		x.batchedSteps++
		if len(want) > 0 {
			x.batchedFlags++
		}
		for _, s := range finishing {
			d.Remove(s.id)
		}
		d.Advance()
	} else {
		x.perRequestSteps++
		for _, id := range batch {
			if finish[id] {
				d.Remove(id)
			} else if err := d.ExtendSlot(x.handle(id), 1, over); err != nil {
				t.Fatalf("ExtendSlot(%d): %v", id, err)
			}
		}
	}
	if got := flagged(over); !reflect.DeepEqual(got, want) {
		t.Fatalf("decode step flagged %v, reference %v", got, want)
	}
	for _, id := range batch {
		if finish[id] {
			x.retire(id)
			x.retired = append(x.retired, id)
		}
	}
}

// check asserts the dispatcher and the reference agree bit for bit, and
// that every stale handle is detected and inert.
func (x *recordsHarness) check(step int) {
	t, d, ref := x.t, x.d, x.ref
	for i := range d.workers {
		if float64(d.h[i]) != ref.h[i] || float64(d.g[i]) != ref.g[i] {
			t.Fatalf("step %d: worker %d load h %v/%v g %v/%v (dispatcher/reference)", step, i, d.h[i], ref.h[i], d.g[i], ref.g[i])
		}
	}
	ids := ref.ids()
	if got := d.Requests(); !reflect.DeepEqual(got, ids) && (len(got) != 0 || len(ids) != 0) {
		t.Fatalf("step %d: tracked %v, reference %v", step, got, ids)
	}
	for _, id := range ids {
		if !reflect.DeepEqual(d.PlacementView(id), ref.place[id]) || d.ContextLen(id) != ref.ctxLen[id] {
			t.Fatalf("step %d: request %d placement %v ctx %d, reference %v ctx %d",
				step, id, d.PlacementView(id), d.ContextLen(id), ref.place[id], ref.ctxLen[id])
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	x.staleChecks += len(x.stale)
	for _, sh := range x.stale {
		if d.Resolve(sh.s, sh.id) == sh.s {
			t.Fatalf("step %d: released handle of request %d still resolves as live", step, sh.id)
		}
		if err := d.ExtendSlot(sh.s, 1, make([]bool, d.NumWorkers())); err == nil {
			t.Fatalf("step %d: stale handle of request %d extended", step, sh.id)
		}
		for _, id := range ids {
			if d.Resolve(nil, id) == sh.s {
				t.Fatalf("step %d: stale handle of request %d reused for request %d", step, sh.id, id)
			}
		}
	}
	if len(x.stale) > 64 {
		x.stale = x.stale[len(x.stale)-64:]
	}
}

// runRecords drives one seeded sequence, returning the dispatcher and
// harness for coverage checks.
func runRecords(t *testing.T, seed int64) (*Dispatcher, *recordsHarness) {
	rng := rand.New(rand.NewSource(seed))
	caps := make([]float64, 2+rng.Intn(5))
	for i := range caps {
		caps[i] = float64(1+rng.Intn(40)) * 1e7
	}
	d, err := New(model.Llama13B, testWorkersForBench(caps[0], caps[1:]...))
	if err != nil {
		t.Fatal(err)
	}
	x := &recordsHarness{t: t, rng: rng, d: d, ref: newRefRecords(d), handles: map[RequestID]*Slot{}, nextID: 1}
	for step := 0; step < 150; step++ {
		x.step(rng.Intn(12))
		x.check(step)
	}
	return d, x
}

// FuzzDispatcherRecords drives the record table and the map-keyed
// reference it replaced through the same random Dispatch / ExtendSlot
// (by id and by handle) / decode step (batched or per request) /
// RebalanceCompute / RebalanceMemory / Remove / Clear sequences, asserting
// bit-identical h and g, identical contexts, placements, overflow sets and
// redispatch victims, and that handles taken before a release are reported
// stale and never reused.
func FuzzDispatcherRecords(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { runRecords(t, seed) })
}

// TestDispatcherRecordsSeeds runs the differential sequence over a fixed
// seed range in the ordinary test pass, and checks the sequences reached
// redispatches, stale handles, and decode steps on both paths.
func TestDispatcherRecordsSeeds(t *testing.T) {
	var redispatches, staleChecks, batched, flags, perRequest int
	for seed := int64(0); seed < 40; seed++ {
		d, x := runRecords(t, seed)
		redispatches += d.Redispatches
		staleChecks += x.staleChecks
		batched += x.batchedSteps
		flags += x.batchedFlags
		perRequest += x.perRequestSteps
	}
	t.Logf("%d redispatches, %d stale-handle checks, %d batched decode steps (%d flagging a worker), %d per-request ones",
		redispatches, staleChecks, batched, flags, perRequest)
	if redispatches == 0 || staleChecks == 0 || flags == 0 || perRequest == 0 {
		t.Fatalf("sequences exercised %d redispatches, %d stale-handle checks, %d flagging batched and %d per-request decode steps; all must be nonzero",
			redispatches, staleChecks, flags, perRequest)
	}
}

// TestRedispatchVictimTieBreak pins the linear victim scan's tie-break: of
// requests contributing equally to the bottleneck, the smallest ID moves,
// whatever order the record table holds them in.
func TestRedispatchVictimTieBreak(t *testing.T) {
	d := newDispatcher(t, model.Llama13B, testWorkersForBench(1e12))
	x := []int{model.Llama13B.Heads}
	// Commit in descending ID order, then release and re-add one so the
	// table's order differs from ID order.
	for _, id := range []RequestID{9, 5, 7, 3} {
		d.commit(id, 500, append([]int(nil), x...))
	}
	d.release(5)
	d.commit(5, 500, append([]int(nil), x...))
	rd, err := d.redispatchBottleneck(func(id RequestID) bool { return id == 3 })
	if err != nil || rd == nil {
		t.Fatalf("redispatchBottleneck: %+v, %v", rd, err)
	}
	if rd.Request != 5 {
		t.Fatalf("victim %d, want 5 (smallest unfrozen ID of an equal-contribution tie)", rd.Request)
	}
}
