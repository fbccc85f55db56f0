package engine

import (
	"fmt"

	"hetis/internal/hardware"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// Splitwise is the phase-splitting baseline (§7.1): high-end GPUs form a
// dedicated prefill instance, the rest a decode pipeline, and every request
// hands its KV cache across the network between the phases. Both instances
// hold a full copy of the model — the memory inefficiency of Fig. 1(a).
type Splitwise struct {
	cfg     Config
	prefill *stagePipeline
	decode  *stagePipeline
}

// NewSplitwise plans the phase split: the top GPU tier preferably serves
// prefill alone; if the remaining devices cannot hold the model weights,
// top-tier devices move to the decode side until both instances fit (the
// prefill side always keeps at least one device).
func NewSplitwise(cfg Config) (*Splitwise, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	est, err := perf.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	groups := cfg.Cluster.DevicesByType()
	if len(groups) < 2 {
		return nil, fmt.Errorf("engine: splitwise needs at least two GPU types (or split within one type)")
	}
	top := groups[0]
	rest := groups[1:]

	for keep := len(top.IDs); keep >= 1; keep /= 2 {
		prefillGroup := hardware.TypeGroup{Spec: top.Spec, IDs: top.IDs[:keep]}
		decodeGroups := append([]hardware.TypeGroup{}, rest...)
		if keep < len(top.IDs) {
			decodeGroups = append([]hardware.TypeGroup{{Spec: top.Spec, IDs: top.IDs[keep:]}}, decodeGroups...)
		}
		pre, errP := buildStaticPipeline(cfg, est, cfg.Cluster, []hardware.TypeGroup{prefillGroup}, 8)
		dec, errD := buildStaticPipeline(cfg, est, cfg.Cluster, decodeGroups, 32)
		if errP == nil && errD == nil {
			return &Splitwise{cfg: cfg, prefill: pre, decode: dec}, nil
		}
		if keep == 1 {
			if errP != nil {
				return nil, fmt.Errorf("engine: splitwise prefill side: %w", errP)
			}
			return nil, fmt.Errorf("engine: splitwise decode side: %w", errD)
		}
	}
	return nil, fmt.Errorf("engine: splitwise could not split %s", cfg.Model.Name)
}

// Name implements Engine.
func (sw *Splitwise) Name() string { return "splitwise" }

// CacheCapacity implements Engine: only the decode side hosts long-lived
// KV cache; the prefill side's space is transient and does not add serving
// capacity (§2.3).
func (sw *Splitwise) CacheCapacity() int64 { return sw.decode.cacheCapacityBytes() }

// PrefillStages and DecodeStages expose the layout.
func (sw *Splitwise) PrefillStages() []parallelizer.Stage { return sw.prefill.stages }

// DecodeStages exposes the decode pipeline layout.
func (sw *Splitwise) DecodeStages() []parallelizer.Stage { return sw.decode.stages }

// Run implements Engine. A replica is one whole phase-split deployment,
// so a failure takes down both sides and a scale-up adds another pair.
func (sw *Splitwise) Run(reqs []workload.Request, horizon float64) (*Result, error) {
	f := newReplicaSet[*splitwiseRuntime](sw.Name(), sw.cfg, sw.CacheCapacity(), len(reqs))
	f.land = (*splitwiseRuntime).landHauled
	err := f.provision(1, func(int) (*splitwiseRuntime, error) {
		rt := &splitwiseRuntime{
			tokenPool: tokenPool{cfg: sw.cfg, pipe: sw.decode, res: f.res, fleet: &f.fleetCore},
			prefill:   sw.prefill,
			prefillQ:  newWaitQueue(f.ctl.tiered()),
			decodeQ:   newWaitQueue(f.ctl.tiered()),
			handoffs:  map[int64]*request{},
		}
		rt.requeueQ = rt.prefillQ
		rt.requeued = rt.requeue
		rt.finished = f.fleetCore.finishDeferred
		rt.prefillStepFn = rt.prefillStep
		rt.prefillDoneFn = rt.prefillDone
		rt.decodeStepFn = rt.decodeStep
		rt.decodeDoneFn = rt.decodeDone
		return rt, nil
	})
	if err != nil {
		return nil, err
	}
	return f.run(reqs, horizon, nil)
}

// splitwiseRuntime is one phase-split deployment. Its embedded tokenPool
// is the decode instance: the running batch on the decode pipeline and
// that side's cache occupancy.
type splitwiseRuntime struct {
	tokenPool

	prefill     *stagePipeline
	prefillQ    *waitQueue
	prefillBusy bool
	// prefillPending is the prefill loop's single outstanding event;
	// prefillBatch the requests inside an in-flight prefill iteration.
	prefillPending sim.Handle
	prefillBatch   []*request
	// promptBuf is prefillStep's reused prompt-length buffer; prefillBatch
	// reuses its own backing array the same way. The next batch is only
	// built after prefillDone is through with the last one.
	promptBuf []int
	// inPrefill tracks tokens resident on the prefill side.
	inPrefill int64

	// transferFree is when the prefill→decode link next frees up;
	// transfers of different requests serialize on it. Handoff events are
	// tracked in handoffGroup (with the requests in handoffs) so a failure
	// can abort the transfers in flight.
	transferFree float64
	handoffGroup sim.Group
	handoffs     map[int64]*request

	decodeQ       *waitQueue
	decodeBusy    bool
	decodePending sim.Handle

	// The loop callbacks, bound once so scheduling a step allocates no
	// closure.
	prefillStepFn func(*sim.Simulator)
	prefillDoneFn func(*sim.Simulator)
	decodeStepFn  func(*sim.Simulator)
	decodeDoneFn  func(*sim.Simulator)
}

// load implements replica: every request on either side or in between.
func (rt *splitwiseRuntime) load() int {
	return rt.prefillQ.len() + len(rt.prefillBatch) + len(rt.handoffs) + rt.decodeQ.len() + len(rt.running)
}

// held implements replica: load already counts every queue and batch.
func (rt *splitwiseRuntime) held() int { return rt.load() }

// intake implements replica: routed work enters the prefill side; decode
// queues stay put, since their KV is resident where it is.
func (rt *splitwiseRuntime) intake() *waitQueue { return rt.prefillQ }

// evacuate implements replica. Requests holding KV on the decode side
// (running or transferred) are resident; everything else — waiting,
// mid-prefill, mid-handoff — loses its progress and re-prefills, so the
// prefill queue drains into the victims too.
func (rt *splitwiseRuntime) evacuate(s *sim.Simulator) ([]*request, map[int64]bool) {
	if rt.prefillBusy {
		s.Cancel(rt.prefillPending)
		rt.prefillBusy = false
	}
	if rt.decodeBusy {
		s.Cancel(rt.decodePending)
		rt.decodeBusy = false
	}
	rt.handoffGroup.CancelAll(s)

	resident := map[int64]bool{}
	var victims []*request
	for _, r := range rt.tokenPool.evacuate() {
		resident[r.wl.ID] = true
		victims = append(victims, r)
	}
	for rt.decodeQ.len() > 0 {
		r := rt.decodeQ.pop()
		resident[r.wl.ID] = true
		victims = append(victims, r)
	}
	//hetis:ordered the replica set sorts victims by seq before acting on them
	for _, r := range rt.handoffs {
		victims = append(victims, r)
	}
	victims = append(victims, rt.prefillBatch...)
	for rt.prefillQ.len() > 0 {
		victims = append(victims, rt.prefillQ.pop())
	}
	rt.prefillBatch = nil
	rt.handoffs = map[int64]*request{}
	rt.inPrefill = 0
	return victims, resident
}

// landHauled places a hauled request straight on the decode queue: its KV
// moved with it, so it skips the prefill phase.
func (rt *splitwiseRuntime) landHauled(s *sim.Simulator, r *request) {
	r.hauled = false // KV is resident again once the transfer lands
	rt.decodeQ.push(r)
	rt.kickDecode(s)
}

// kick implements replica: it starts the prefill loop if it is idle.
func (rt *splitwiseRuntime) kick(s *sim.Simulator) {
	if rt.prefillBusy {
		return
	}
	rt.prefillBusy = true
	rt.prefillPending = s.After(0, "sw-prefill-step", rt.prefillStepFn)
}

// requeue is the decode pool's requeue hook: a victim restarts from the
// prefill phase and re-transfers.
func (rt *splitwiseRuntime) requeue(s *sim.Simulator, _ *request) { rt.kick(s) }

func (rt *splitwiseRuntime) prefillStep(s *sim.Simulator) {
	cfg := &rt.cfg
	admitted := rt.prefillBatch[:0]
	tokens := 0
	for rt.prefillQ.len() > 0 && len(admitted) < maxPrefillRequests {
		r := rt.prefillQ.peek()
		ctx := int64(r.restartCtx)
		if ctx > rt.prefill.tokenCap {
			rt.prefillQ.pop() // cannot ever prefill
			rt.res.Trace.Addf(s.Now(), trace.KindEviction, r.wl.ID, -1, 0, "dropped: exceeds prefill cache")
			rt.fleet.dropAdmitted(s, r)
			continue
		}
		if rt.inPrefill+ctx > rt.prefill.tokenCap && len(admitted) > 0 {
			break
		}
		if tokens+int(ctx) > maxPrefillTokens && len(admitted) > 0 {
			break
		}
		rt.prefillQ.pop()
		rt.inPrefill += ctx
		tokens += int(ctx)
		admitted = append(admitted, r)
	}
	rt.prefillBatch = admitted
	if len(admitted) == 0 {
		rt.prefillBusy = false
		return
	}
	prompts := rt.promptBuf[:0]
	for _, r := range admitted {
		prompts = append(prompts, r.restartCtx)
	}
	rt.promptBuf = prompts
	dt := rt.prefill.prefillTime(cfg, prompts)
	rt.prefillPending = s.After(dt, "sw-prefill-done", rt.prefillDoneFn)
}

// prefillDone is the prefill-completion callback over the batch in
// prefillBatch. Only one prefill event is pending at a time, and evacuate
// cancels it before clearing the batch, so the callback never sees a
// stale one.
func (rt *splitwiseRuntime) prefillDone(s *sim.Simulator) {
	admitted := rt.prefillBatch
	rt.prefillBatch = admitted[:0]
	for _, r := range admitted {
		if r.firstTok == 0 {
			r.firstTok = s.Now()
		}
		if r.generated == 0 {
			r.generated = 1
		}
		rt.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindPrefill, Request: r.wl.ID, Value: float64(r.restartCtx)})
		if r.done() {
			rt.inPrefill -= int64(r.restartCtx)
			rt.fleet.finishDeferred(s, r)
			continue
		}
		rt.scheduleHandoff(s, r)
	}
	rt.fleet.flushFinishes()
	// The next prefill batch waits for this batch's KV handoffs to drain
	// the NIC: the phase split forces a full-context cache transfer per
	// request, which interferes with prefill (§2.3).
	if rt.transferFree > s.Now() {
		rt.prefillPending = s.Schedule(rt.transferFree, "sw-prefill-nic", rt.prefillStepFn)
		return
	}
	rt.prefillStep(s)
}

// scheduleHandoff ships the request's KV cache to the decode instance over
// the cluster interconnect; transfers serialize on the link.
func (rt *splitwiseRuntime) scheduleHandoff(s *sim.Simulator, r *request) {
	m := rt.cfg.Model
	bytes := int64(r.contextLen()) * m.KVBytesPerToken()
	link := rt.cfg.Cluster.InterLink
	start := s.Now()
	if rt.transferFree > start {
		start = rt.transferFree
	}
	done := start + perf.P2PTime(link, bytes)
	rt.transferFree = done
	rt.res.Migrations++
	rt.res.MigratedBytes += bytes
	rt.handoffs[r.wl.ID] = r
	rt.handoffGroup.Track(s, s.Schedule(done, "sw-handoff", func(s *sim.Simulator) {
		delete(rt.handoffs, r.wl.ID)
		rt.inPrefill -= int64(r.restartCtx)
		rt.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindMigration, Request: r.wl.ID, Value: float64(bytes)})
		rt.decodeQ.push(r)
		rt.kickDecode(s)
		rt.kick(s)
	}))
}

func (rt *splitwiseRuntime) kickDecode(s *sim.Simulator) {
	if rt.decodeBusy {
		return
	}
	rt.decodeBusy = true
	rt.decodePending = s.After(0, "sw-decode-step", rt.decodeStepFn)
}

func (rt *splitwiseRuntime) decodeStep(s *sim.Simulator) {
	// Admit transferred requests while cache allows.
	for rt.decodeQ.len() > 0 && len(rt.running) < maxRunning {
		r := rt.decodeQ.peek()
		ctx := int64(r.contextLen())
		if rt.fleet.ctl.tiered() && rt.used+ctx > rt.pipe.tokenCap && len(rt.running) > 0 {
			rt.preemptFor(s, r.prio, ctx)
		}
		if rt.used+ctx > rt.pipe.tokenCap {
			if len(rt.running) == 0 && ctx > rt.pipe.tokenCap {
				rt.decodeQ.pop()
				rt.res.Trace.Addf(s.Now(), trace.KindEviction, r.wl.ID, -1, 0, "dropped: exceeds decode cache")
				rt.fleet.dropAdmitted(s, r)
				continue
			}
			break
		}
		rt.decodeQ.pop()
		rt.used += ctx
		rt.join(r)
	}
	if len(rt.running) == 0 {
		rt.decodeBusy = false
		return
	}
	rt.decodePending = rt.launchDecode(s, "sw-decode-done", rt.decodeDoneFn)
}

// decodeDone is the decode-completion callback.
func (rt *splitwiseRuntime) decodeDone(s *sim.Simulator) {
	rt.afterDecode(s)
	rt.decodeStep(s)
}
