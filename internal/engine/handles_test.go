package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hetis/internal/dispatch"
	"hetis/internal/kvcache"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/sim"
	"hetis/internal/workload"
)

// newHandleInstance builds one Hetis instance with two admitted requests
// (IDs 1 and 2) placed and allocated, ready for white-box decode steps.
func newHandleInstance(t *testing.T) (*hetisInstance, []*request) {
	t.Helper()
	reqs := shortTrace(workload.ShareGPT, 2, 10, 3)
	h := buildHetis(t, model.Llama13B, reqs)
	inst, err := h.newInstance(h.plan.Instances[0], &Result{})
	if err != nil {
		t.Fatal(err)
	}
	inst.waiting = newWaitQueue(false)
	inst.fleet = &fleetCore{res: inst.res}
	var rs []*request
	for _, id := range []int64{1, 2} {
		r := &request{wl: workload.Request{ID: id, PromptLen: 900, OutputLen: 100}, restartCtx: 900, seq: id}
		if _, err := inst.disp.Dispatch(dispatch.NewRequest{ID: id, ContextLen: 900}); err != nil {
			t.Fatal(err)
		}
		if !inst.kvAlloc(nil, id, 900) {
			t.Fatalf("kvAlloc(%d) failed", id)
		}
		inst.byID[id] = r
		inst.running = append(inst.running, r)
		rs = append(rs, r)
	}
	return inst, rs
}

// TestKVExtendWithoutBlocksEvictsNobody pins kvExtend's retry rule: only
// block exhaustion justifies evicting other requests. A request whose
// placement names a worker it holds no blocks on (a redispatch that could
// not grow its allocation there) must not evict anyone — the old loop
// evicted every other request on that worker one by one.
func TestKVExtendWithoutBlocksEvictsNobody(t *testing.T) {
	inst, rs := newHandleInstance(t)
	a := rs[0]
	w := -1
	for i, heads := range inst.disp.PlacementView(a.wl.ID) {
		if heads > 0 {
			w = i
			break
		}
	}
	if w < 0 {
		t.Fatal("request 1 holds heads nowhere")
	}
	// Request 2 must sit on worker w too, so the old loop had a victim.
	if !inst.kv[w].Has(2) {
		if err := inst.kv[w].Alloc(2, 1, 900); err != nil {
			t.Fatal(err)
		}
	}
	inst.kv[w].Free(1)

	before := map[int]int{}
	for i, m := range inst.kv {
		before[i] = m.Tokens(1)
	}
	s := sim.New()
	inst.extendToken(s, a)
	if inst.res.Evictions != 0 || inst.byID[2] == nil || !inst.kv[w].Has(2) {
		t.Fatalf("extending a request without blocks on worker %d evicted: %d evictions, request 2 tracked %v",
			w, inst.res.Evictions, inst.byID[2] != nil)
	}
	for i, heads := range inst.disp.PlacementView(a.wl.ID) {
		if heads > 0 && i != w && inst.kv[i].Tokens(1) != before[i]+1 {
			t.Fatalf("worker %d: request 1 holds %d tokens, want %d", i, inst.kv[i].Tokens(1), before[i]+1)
		}
	}
	for i, m := range inst.kv {
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestDecodeHandlesSurviveReplacement drives the cached handles through a
// redispatch and an evict/re-admit cycle: the per-token path must resolve
// the fresh records, keeping dispatcher and block managers in lockstep.
func TestDecodeHandlesSurviveReplacement(t *testing.T) {
	inst, rs := newHandleInstance(t)
	s := sim.New()
	a := rs[0]
	inst.extendToken(s, a)
	slot := a.hx.slot
	if slot == nil || inst.disp.Resolve(slot, 1) != slot {
		t.Fatal("first token did not cache a live dispatcher handle")
	}
	entries := append([]*kvcache.Entry(nil), a.hx.kv...)

	// A redispatch commits a fresh record: the cached one goes stale and
	// the next token re-resolves it.
	w := slot.Shares()[0].Worker
	rd, err := inst.disp.RebalanceMemory(w, []int64{1})
	if err != nil || rd == nil {
		t.Fatalf("RebalanceMemory(%d) did not redispatch request 1: %+v, %v", w, rd, err)
	}
	inst.applyRedispatch(s, rd)
	if inst.disp.Resolve(slot, 1) == slot {
		t.Fatal("handle survived a re-placement")
	}
	ctx := inst.disp.ContextLen(1)
	inst.extendToken(s, a)
	if a.hx.slot == slot || inst.disp.ContextLen(1) != ctx+1 {
		t.Fatalf("token after re-placement: handle refreshed %v, context %d want %d",
			a.hx.slot != slot, inst.disp.ContextLen(1), ctx+1)
	}
	for i, heads := range inst.disp.PlacementView(1) {
		if heads > 0 && inst.kv[i].Tokens(1) != ctx+1 {
			t.Fatalf("worker %d holds %d tokens after re-placement, want %d", i, inst.kv[i].Tokens(1), ctx+1)
		}
	}

	// Evict and re-admit: every KV entry handle taken before must be stale.
	if !inst.evict(s, 1) {
		t.Fatal("evict(1) failed")
	}
	for i, e := range entries {
		if e != nil && inst.kv[i].Resolve(e, 1) == e {
			t.Fatalf("worker %d: entry handle survived eviction", i)
		}
	}
	if _, err := inst.disp.Dispatch(dispatch.NewRequest{ID: 1, ContextLen: 950}); err != nil {
		t.Fatal(err)
	}
	if !inst.kvAlloc(s, 1, 950) {
		t.Fatal("re-admission kvAlloc failed")
	}
	inst.byID[1] = a
	inst.extendToken(s, a)
	if got := inst.disp.ContextLen(1); got != 951 {
		t.Fatalf("context after re-admission token %d, want 951", got)
	}
	for i, heads := range inst.disp.PlacementView(1) {
		if heads > 0 && inst.kv[i].Tokens(1) != 951 {
			t.Fatalf("worker %d holds %d tokens, want 951", i, inst.kv[i].Tokens(1))
		}
	}
	if err := inst.disp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, m := range inst.kv {
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestBatchedStepFallsBack drives decode steps the batched advance must
// not take, on twin instances: one takes whichever path batchedStep picks,
// the other is forced onto the per-request loop. The first must decline
// the batched step and both must end in the same state.
func TestBatchedStepFallsBack(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T, inst *hetisInstance, rs []*request)
	}{
		{"block shortage", func(t *testing.T, inst *hetisInstance, rs []*request) {
			// Bring request 1 to a block boundary, then leave one of its
			// workers without a free block for the crossing.
			s := sim.New()
			for inst.disp.ContextLen(1)%16 != 0 {
				inst.extendToken(s, rs[0])
				inst.extendToken(s, rs[1])
			}
			w := rs[0].hx.slot.Shares()[0].Worker
			m := inst.kv[w]
			if err := m.Alloc(99, 1, m.FreeBlocks()*16); err != nil {
				t.Fatal(err)
			}
		}},
		{"repeated request", func(t *testing.T, inst *hetisInstance, rs []*request) {
			inst.running = append(inst.running, rs[1])
		}},
		{"running request not tracked", func(t *testing.T, inst *hetisInstance, rs []*request) {
			inst.disp.Remove(2)
			inst.kvFree(2)
		}},
		{"tracked request not running", func(t *testing.T, inst *hetisInstance, rs []*request) {
			inst.running = inst.running[:1]
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var states [2]string
			for k, perRequest := range []bool{false, true} {
				inst, rs := newHandleInstance(t)
				inst.cfg.perRequestSteps = perRequest
				c.setup(t, inst, rs)
				inst.afterDecode(sim.New())
				if !perRequest && inst.res.PerRequestSteps != 1 {
					t.Fatalf("the batched step ran (%d per-request steps)", inst.res.PerRequestSteps)
				}
				states[k] = stepState(inst, rs)
			}
			if states[0] != states[1] {
				t.Fatalf("state after the step:\n%s\nper-request twin:\n%s", states[0], states[1])
			}
		})
	}
}

// stepState renders what a decode step can change: the batch, each
// request's tokens, the dispatcher's loads and contexts, and every block
// manager's blocks and per-request tokens.
func stepState(inst *hetisInstance, rs []*request) string {
	var b strings.Builder
	for _, r := range inst.running {
		fmt.Fprintf(&b, "running %d ", r.wl.ID)
	}
	for _, r := range rs {
		fmt.Fprintf(&b, "\nrequest %d generated %d ctx %d", r.wl.ID, r.generated, inst.disp.ContextLen(r.wl.ID))
	}
	for i, m := range inst.kv {
		fmt.Fprintf(&b, "\nworker %d g %g free %d tokens %d/%d/%d",
			i, inst.disp.CacheBytes(i), m.FreeBlocks(), m.Tokens(1), m.Tokens(2), m.Tokens(99))
	}
	fmt.Fprintf(&b, "\nevictions %d", inst.res.Evictions)
	return b.String()
}

// TestPerRequestStepMidBatchEviction pins the per-request decode loop's
// handling of an eviction it forces mid-batch. Worker w has no free block
// and its newest entry is the victim: one request's token crosses a block
// boundary there and evicts the other, either before or after the
// victim's own turn. Either way the victim must leave the batch for the
// waiting queue, untouched by the rest of the step, the requester must
// advance once, and no slot of either batch buffer may keep a pointer
// past its length.
func TestPerRequestStepMidBatchEviction(t *testing.T) {
	for _, c := range []struct {
		name              string
		requester, victim int // indexes into the batch
	}{
		{"victim still to come", 0, 1},
		{"victim already advanced", 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst, rs := newHandleInstance(t)
			inst.cfg.perRequestSteps = true
			s := sim.New()
			for inst.disp.ContextLen(1)%16 != 0 {
				inst.extendToken(s, rs[0])
				inst.extendToken(s, rs[1])
			}
			req, vic := rs[c.requester], rs[c.victim]
			w := req.hx.slot.Shares()[0].Worker
			m := inst.kv[w]
			// Re-allocate the victim on w over every free block, which also
			// makes it w's newest entry. One token short of its last block,
			// it can still grow without a new one when its turn comes first.
			m.Free(kvcache.RequestID(vic.wl.ID))
			if err := m.Alloc(kvcache.RequestID(vic.wl.ID), 1, m.FreeBlocks()*16-1); err != nil {
				t.Fatal(err)
			}
			reqGen, vicGen := req.generated, vic.generated
			if c.victim > c.requester {
				vicGen-- // it is evicted before its turn
			}
			inst.afterDecode(s)

			if inst.res.PerRequestSteps != 1 || inst.res.Evictions != 1 {
				t.Fatalf("per-request steps %d, evictions %d; want 1 and 1", inst.res.PerRequestSteps, inst.res.Evictions)
			}
			if len(inst.running) != 1 || inst.running[0] != req {
				ids := []int64{}
				for _, r := range inst.running {
					ids = append(ids, r.wl.ID)
				}
				t.Fatalf("running %v after the step, want [%d]", ids, req.wl.ID)
			}
			if inst.waiting.len() != 1 || inst.waiting.peek() != vic {
				t.Fatalf("waiting holds %d requests, want the victim %d alone", inst.waiting.len(), vic.wl.ID)
			}
			if req.generated != reqGen+1 || vic.generated != vicGen+1 {
				t.Fatalf("generated: requester %d (want %d), victim %d (want %d)",
					req.generated, reqGen+1, vic.generated, vicGen+1)
			}
			for name, buf := range map[string][]*request{"running": inst.running, "stillBuf": inst.stillBuf} {
				for i, r := range buf[len(buf):cap(buf)] {
					if r != nil {
						t.Errorf("%s keeps request %d in slot %d past its length", name, r.wl.ID, len(buf)+i)
					}
				}
			}
		})
	}
}

// TestFreshBatchSurvivesNextFill pins the livelock guard's view of the
// last completed prefill: inst.fresh must list that batch, unchanged,
// while the next batch fills the other admission buffer.
func TestFreshBatchSurvivesNextFill(t *testing.T) {
	reqs := shortTrace(workload.ShareGPT, 2, 10, 3)
	h := buildHetis(t, model.Llama13B, reqs)
	inst, err := h.newInstance(h.plan.Instances[0], &Result{})
	if err != nil {
		t.Fatal(err)
	}
	inst.waiting = newWaitQueue(false)
	inst.fleet = &fleetCore{res: inst.res}
	// Twelve short requests make two batches of at most maxPrefillRequests.
	for id := int64(1); id <= maxPrefillRequests+4; id++ {
		inst.waiting.push(&request{wl: workload.Request{ID: id, PromptLen: 100, OutputLen: 50}, restartCtx: 100, seq: id})
	}
	s := sim.New()
	if !inst.tryPrefill(s) {
		t.Fatal("the first batch was not admitted")
	}
	first := slices.Clone(inst.admitBufs[inst.admitNext])
	// Completing it admits the second batch at once.
	inst.prefillDone(s)
	if inst.waiting.len() != 0 {
		t.Fatalf("%d requests still wait after the second fill", inst.waiting.len())
	}
	if !slices.Equal(inst.fresh, first) {
		t.Fatalf("fresh batch changed while the next one filled: %d requests, want the %d completed", len(inst.fresh), len(first))
	}
}

// TestFreshOmitsFinishers pins the fresh batch against recycling: a
// request that finishes at its prefill is recycled by that callback's
// flush, so fresh must leave it out, or a later arrival reusing its state
// and evicted before the next decode step would hold admission back.
func TestFreshOmitsFinishers(t *testing.T) {
	reqs := shortTrace(workload.ShareGPT, 2, 10, 3)
	h := buildHetis(t, model.Llama13B, reqs)
	inst, err := h.newInstance(h.plan.Instances[0], &Result{})
	if err != nil {
		t.Fatal(err)
	}
	inst.waiting = newWaitQueue(false)
	inst.fleet = &fleetCore{res: inst.res, sink: metrics.NewExactRecorder(metrics.SLOTarget{})}
	for id := int64(1); id <= 3; id++ {
		out := 50
		if id == 2 {
			out = 1 // done with the prefill's token
		}
		inst.waiting.push(&request{wl: workload.Request{ID: id, PromptLen: 100, OutputLen: out}, restartCtx: 100, seq: id})
	}
	s := sim.New()
	if !inst.tryPrefill(s) {
		t.Fatal("the batch was not admitted")
	}
	finisher := inst.admitBufs[inst.admitNext][1]
	inst.prefillDone(s)
	if inst.res.Completed != 1 {
		t.Fatalf("%d requests completed at the prefill, want 1", inst.res.Completed)
	}
	if len(inst.fresh) != 2 || slices.Contains(inst.fresh, finisher) {
		t.Fatalf("fresh holds %d requests (finisher included: %v), want the 2 still running", len(inst.fresh), slices.Contains(inst.fresh, finisher))
	}
	// The next arrival takes the finisher's state; evicting it before the
	// decode step must not hold admission.
	r := inst.fleet.pool.get()
	if r != finisher {
		t.Fatal("the pool did not hand back the finisher's state")
	}
	r.wl = workload.Request{ID: 9, PromptLen: 100, OutputLen: 50}
	r.restartCtx = 100
	inst.byID[9] = r
	if !inst.evict(s, 9) {
		t.Fatal("the arrival was not evicted")
	}
	if inst.holdAdmission {
		t.Fatal("evicting a new arrival held admission: fresh still lists the state it reuses")
	}
}

// TestSplicesLeaveNoStalePointer pins the two mid-batch splices: evict
// and preemptFor take a request out of the running batch and must zero
// the slot the batch vacates, since afterDecode clears a retired batch
// only up to its length.
func TestSplicesLeaveNoStalePointer(t *testing.T) {
	for _, c := range []struct {
		name   string
		splice func(inst *hetisInstance, s *sim.Simulator, rs []*request) bool
	}{
		{"evict", func(inst *hetisInstance, s *sim.Simulator, rs []*request) bool {
			return inst.evict(s, rs[0].wl.ID)
		}},
		{"preemptFor", func(inst *hetisInstance, s *sim.Simulator, rs []*request) bool {
			return inst.preemptFor(s, &request{prio: 1})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst, rs := newHandleInstance(t)
			if !c.splice(inst, sim.New(), rs) {
				t.Fatal("no request left the batch")
			}
			if len(inst.running) != 1 {
				t.Fatalf("running holds %d requests, want 1", len(inst.running))
			}
			if tail := inst.running[1:cap(inst.running)]; slices.ContainsFunc(tail, func(r *request) bool { return r != nil }) {
				t.Fatal("the vacated slot still points at a request")
			}
		})
	}
}
