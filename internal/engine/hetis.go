package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"hetis/internal/dispatch"
	"hetis/internal/hardware"
	"hetis/internal/kvcache"
	"hetis/internal/metrics"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/profile"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// dispatchCapacityMargin derates the dispatcher's view of per-worker cache
// capacity relative to the block manager, absorbing block-rounding slack.
const dispatchCapacityMargin = 0.9

// Hetis is the paper's serving engine: primary-worker parallelism for dense
// modules plus dynamic head-wise attention dispatch over the pooled
// low-end GPUs.
type Hetis struct {
	cfg  Config
	est  *perf.Estimator
	plan *parallelizer.Plan
	prof *profile.Profile
}

// NewHetis builds the engine from an explicit parallelization plan (use
// parallelizer.Search, or PlanForWorkload for convenience), fitting the
// cost profile on the plan's primary device.
func NewHetis(cfg Config, plan *parallelizer.Plan) (*Hetis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if plan == nil || len(plan.Instances) == 0 {
		return nil, fmt.Errorf("engine: hetis needs a non-empty plan")
	}
	est, err := perf.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	primary := plan.Instances[0].Stages[0].Devices[0]
	prof, err := profile.Run(est, cfg.Cluster, primary)
	if err != nil {
		return nil, fmt.Errorf("engine: profiling: %w", err)
	}
	return &Hetis{cfg: cfg, est: est, plan: plan, prof: prof}, nil
}

// SetProfile overrides the fitted models (used by the Fig. 16(b)
// profiling-error experiment).
func (h *Hetis) SetProfile(p *profile.Profile) { h.prof = p }

// Plan exposes the deployment plan.
func (h *Hetis) Plan() *parallelizer.Plan { return h.plan }

// PlanForWorkload runs the parallelizer on aggregate trace statistics. The
// decode-batch target adapts to what the cluster can physically cache for
// the trace's context lengths, so long-context workloads on KV-heavy models
// stay feasible.
func PlanForWorkload(cfg Config, reqs []workload.Request) (*parallelizer.Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := workload.Summarize(reqs)
	wl := parallelizer.DefaultWorkload()
	if st.Count > 0 {
		wl.AvgPrompt = max(1, int(st.MeanPrompt))
		wl.AvgOutput = max(1, int(st.MeanOutput))
		wl.AvgContext = max(1, int(st.MeanPrompt+st.MeanOutput/2))
	}
	// Upper-bound the batch target by the cache the cluster could hold
	// with one model copy resident (conservatively 60% usable for KV).
	freeBytes := float64(cfg.Cluster.TotalMemory())*(1-parallelizer.MemHeadroom) - float64(cfg.Model.WeightBytes())
	if freeBytes > 0 {
		maxBatch := int(0.6 * freeBytes / (float64(wl.AvgContext) * float64(cfg.Model.KVBytesPerToken())))
		if maxBatch < 4 {
			maxBatch = 4
		}
		if wl.DecodeBatch > maxBatch {
			wl.DecodeBatch = maxBatch
		}
	}
	est, err := perf.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	return parallelizer.Search(cfg.Cluster, est, wl, parallelizer.DefaultOptions())
}

// Name implements Engine.
func (h *Hetis) Name() string { return "hetis" }

// CacheCapacity implements Engine: free memory on primaries after weights
// plus the full memory of the attention-worker pool.
func (h *Hetis) CacheCapacity() int64 {
	var total int64
	for _, in := range h.plan.Instances {
		for _, st := range in.Stages {
			free := stageFreeBytes(h.cfg, st)
			if free > 0 {
				total += free
			}
		}
		for _, id := range in.AttentionWorkers {
			total += int64(float64(h.cfg.Cluster.Device(id).Spec.MemBytes) * (1 - parallelizer.MemHeadroom))
		}
	}
	return total
}

func stageFreeBytes(cfg Config, st parallelizer.Stage) int64 {
	var mem float64
	for range st.Devices {
		mem += float64(st.Spec.MemBytes) * (1 - parallelizer.MemHeadroom)
	}
	weights := float64(st.Layers) * float64(cfg.Model.LayerWeightBytes())
	return int64(mem - weights)
}

// hetisInstance is the runtime of one serving instance, one replica of a
// replicaSet; a healthy run's set has exactly the plan's instances, all
// active, and behaves like the legacy loop.
type hetisInstance struct {
	eng *Hetis
	// pipe prices the instance's stages: the dense side of a decode step,
	// memoized per batch size, and prefills.
	pipe *stagePipeline
	pool []hardware.DeviceID

	disp *dispatch.Dispatcher
	kv   []*kvcache.Manager
	// workerDev maps dispatcher worker index to a representative device
	// (the stage's first device, or the pool device itself).
	workerDev []hardware.DeviceID
	// workerLink is the channel from the instance primary to the worker.
	workerLink []hardware.LinkSpec

	fleet *fleetCore
	// pending is the instance's single outstanding loop event (step,
	// prefill, or decode completion) — what a failure cancels.
	pending sim.Handle

	waiting *waitQueue
	running []*request
	byID    map[int64]*request
	busy    bool
	// decodeSteps counts decode iterations for the rebalance cadence.
	decodeSteps int
	// lastMig records the decode step at which a request last migrated;
	// recently migrated requests are frozen against re-migration. It stays
	// a per-instance map (unlike the hot seq field on request) because the
	// cooldown is a property of the (instance, request) pair — it must
	// survive an evict/requeue on the same instance yet not follow the
	// request to a survivor after a failure — and it is touched only on
	// migrations, far off the decode fast path.
	lastMig map[int64]int
	// pendingDelay accumulates blocking-migration time charged to the
	// next iteration.
	pendingDelay float64
	// fresh is the batch whose prefill completed last, less the requests
	// that finished there, until the next decode step. holdAdmission is
	// set when memory pressure evicts one of it before that step:
	// re-admitting the victim at once would prefill it into the same
	// shortage, evict it again and starve decode — a livelock — so
	// tryPrefill waits for the decode step while anything runs.
	fresh         []*request
	holdAdmission bool
	// admitBufs are the two buffers admission batches alternate between:
	// tryPrefill fills admitBufs[admitNext], and its completion makes that
	// batch fresh and flips admitNext, so filling the next batch never
	// overwrites the fresh one. prompts is the batch's prompt-length
	// scratch, and prefillDoneFn the cached completion callback, so a
	// prefill allocates nothing once warm.
	admitBufs     [2][]*request
	admitNext     int
	prompts       []int
	prefillDoneFn func(*sim.Simulator)

	// stillBuf and finishing are per-iteration scratch reused across
	// decode steps; overflowHit flags, by worker index, the workers a
	// prefill or decode step left over their dispatch capacity.
	stillBuf    []*request
	finishing   []*dispatch.Slot
	overflowHit []bool
	// decodeDone is the cached decode-completion callback, so scheduling a
	// step allocates no closure.
	decodeDone func(*sim.Simulator)
	// idScratch collects a worker's resident request IDs for memory
	// pressure's newest-first candidate list.
	idScratch []kvcache.RequestID
	// migOld, migNew and moves are applyRedispatch's scratch: the
	// request's head groups per worker before and after, and the plan.
	migOld, migNew []int
	moves          []kvcache.Move
	// hxSlab and kvSlab are the unused tails of the chunks request handle
	// sets are carved from (see handles).
	hxSlab []hetisHandles
	kvSlab []*kvcache.Entry

	res *Result
	cfg *Config
}

func (h *Hetis) newInstance(in parallelizer.Instance, res *Result) (*hetisInstance, error) {
	cfg := h.cfg
	inst := &hetisInstance{
		eng:     h,
		pipe:    &stagePipeline{stages: in.Stages},
		pool:    in.AttentionWorkers,
		byID:    make(map[int64]*request),
		lastMig: make(map[int64]int),
		res:     res,
		cfg:     &h.cfg,
	}
	groupTok := cfg.Model.KVBytesPerTokenHeadGroup() * int64(cfg.Model.Layers)

	var workers []dispatch.Worker
	addWorker := func(dev hardware.DeviceID, attn profile.AttnModel, net profile.NetModel, primary bool, freeBytes int64, link hardware.LinkSpec) error {
		if freeBytes < 0 {
			freeBytes = 0
		}
		mgr, err := kvcache.NewManager(kvcache.Config{
			BlockTokens:        16,
			BytesPerGroupToken: groupTok,
			CapacityBytes:      freeBytes,
		})
		if err != nil {
			return err
		}
		inst.kv = append(inst.kv, mgr)
		inst.workerDev = append(inst.workerDev, dev)
		inst.workerLink = append(inst.workerLink, link)
		workers = append(workers, dispatch.Worker{
			ID:            dev,
			Attn:          attn,
			Net:           net,
			Primary:       primary,
			CapacityBytes: float64(mgr.CapacityBytes()) / float64(cfg.Model.Layers) * dispatchCapacityMargin,
		})
		return nil
	}

	primaryDev := in.Stages[0].Devices[0]
	for _, st := range in.Stages {
		inst.pipe.costs = append(inst.pipe.costs, parallelizer.CompileStage(h.est, st, parallelizer.StageLink(cfg.Cluster, st)))
		am := h.prof.Attn[st.Devices[0]]
		// TP shards heads and cache across the stage's tensor group.
		am.A /= float64(st.TP)
		am.B /= float64(st.TP)
		if err := addWorker(st.Devices[0], am, profile.NetModel{}, true, stageFreeBytes(cfg, st), hardware.Loopback); err != nil {
			return nil, err
		}
	}
	for _, id := range in.AttentionWorkers {
		free := int64(float64(cfg.Cluster.Device(id).Spec.MemBytes) * (1 - parallelizer.MemHeadroom))
		link := cfg.Cluster.Link(primaryDev, id)
		if err := addWorker(id, h.prof.Attn[id], h.prof.Net[id], false, free, link); err != nil {
			return nil, err
		}
	}
	d, err := dispatch.New(cfg.Model, workers)
	if err != nil {
		return nil, err
	}
	if cfg.GreedyDispatch {
		d.SetPolicy(dispatch.PolicyGreedy)
	}
	inst.disp = d
	inst.overflowHit = make([]bool, len(workers))
	inst.decodeDone = inst.onDecodeDone
	inst.prefillDoneFn = inst.prefillDone
	return inst, nil
}

// Run implements Engine. The plan's instances are the base replica set;
// chaos replicas beyond them reuse the plan's instance templates
// round-robin (same stages and pool, modelling identical spare
// deployments).
func (h *Hetis) Run(reqs []workload.Request, horizon float64) (*Result, error) {
	f := newReplicaSet[*hetisInstance](h.Name(), h.cfg, h.CacheCapacity(), len(reqs))
	res := f.res
	if !h.cfg.NoTrace {
		res.HeadSeries = map[hardware.DeviceID]*metrics.Series{}
		res.CacheSeries = map[hardware.DeviceID]*metrics.Series{}
	}
	base := len(h.plan.Instances)
	err := f.provision(base, func(i int) (*hetisInstance, error) {
		inst, err := h.newInstance(h.plan.Instances[i%base], res)
		if err != nil {
			return nil, err
		}
		inst.fleet = &f.fleetCore
		inst.waiting = newWaitQueue(f.ctl.tiered())
		return inst, nil
	})
	if err != nil {
		return nil, err
	}
	var timers func(*sim.Simulator)
	if h.cfg.SampleEvery > 0 {
		// Sample only the plan's own instances: extra chaos replicas reuse
		// the same devices, so sampling them would double-count series keys.
		sampled := f.replicas[:base]
		var sample func(s *sim.Simulator)
		sample = func(s *sim.Simulator) {
			for _, inst := range sampled {
				inst.sample(s.Now())
			}
			if s.Pending() > 0 {
				s.After(h.cfg.SampleEvery, "sample", sample)
			}
		}
		timers = func(s *sim.Simulator) { s.After(h.cfg.SampleEvery, "sample", sample) }
	}
	if _, err := f.run(reqs, horizon, timers); err != nil {
		return nil, err
	}
	for _, inst := range f.replicas {
		res.LPSolves += inst.disp.LPSolves
		res.LPSolvesAvoided += inst.disp.LPSolvesAvoided
		res.LPSolveSeconds += inst.disp.LPSolveSeconds
	}
	return res, nil
}

// load implements replica with the legacy routing key: waiting plus
// running.
func (inst *hetisInstance) load() int { return inst.waiting.len() + len(inst.running) }

// held implements replica: waiting, plus running and in-flight prefill
// (byID indexes both).
func (inst *hetisInstance) held() int { return inst.waiting.len() + len(inst.byID) }

// intake implements replica.
func (inst *hetisInstance) intake() *waitQueue { return inst.waiting }

// evacuate implements replica: the loop event is cancelled and dispatch
// and KV state torn down; the running batch is resident, requests admitted
// to an in-flight prefill are not.
func (inst *hetisInstance) evacuate(s *sim.Simulator) ([]*request, map[int64]bool) {
	if inst.busy {
		s.Cancel(inst.pending)
		inst.busy = false
	}
	resident := make(map[int64]bool, len(inst.running))
	for _, r := range inst.running {
		resident[r.wl.ID] = true
	}
	victims := make([]*request, 0, len(inst.byID))
	//hetis:ordered the replica set sorts victims by seq before acting on them
	for _, r := range inst.byID {
		victims = append(victims, r)
	}
	for _, r := range victims {
		delete(inst.byID, r.wl.ID)
		delete(inst.lastMig, r.wl.ID)
		inst.kvFree(r.wl.ID)
	}
	inst.disp.Clear()
	clear(inst.running)
	inst.running = inst.running[:0]
	inst.pendingDelay = 0
	inst.fresh, inst.holdAdmission = nil, false
	return victims, resident
}

func (inst *hetisInstance) kick(s *sim.Simulator) {
	if inst.busy {
		return
	}
	inst.busy = true
	inst.pending = s.After(0, "step", inst.step)
}

// step runs one scheduling decision: prefill first (continuous batching
// admits whenever cache allows), otherwise a decode iteration.
func (inst *hetisInstance) step(s *sim.Simulator) {
	if inst.tryPrefill(s) {
		return
	}
	if inst.tryDecode(s) {
		return
	}
	inst.busy = false
}

// tryPrefill admits waiting requests within batching limits and runs one
// prefill iteration for them.
func (inst *hetisInstance) tryPrefill(s *sim.Simulator) bool {
	if inst.holdAdmission && len(inst.running) > 0 {
		return false
	}
	// Clear what the buffer held two batches ago: a stale pointer to a
	// request dropped since would keep it and its handle slab, and all
	// they reach, alive. (Completed requests are recycled; nothing reads
	// a stale pointer here.)
	admitted := inst.admitBufs[inst.admitNext]
	clear(admitted[:cap(admitted)])
	admitted = admitted[:0]
	tokens := 0
	for inst.waiting.len() > 0 &&
		len(admitted) < maxPrefillRequests &&
		len(inst.running)+len(admitted) < maxRunning {
		r := inst.waiting.peek()
		ctx := r.restartCtx
		if tokens+r.prefillLen() > maxPrefillTokens && len(admitted) > 0 {
			break
		}
		nr := dispatch.NewRequest{ID: r.wl.ID, ContextLen: ctx}
		if !inst.underWatermark(ctx) {
			if inst.fleet.ctl.tiered() && len(admitted) == 0 && inst.preemptFor(s, r) {
				continue // retry the head waiter against the freed memory
			}
			// Leave growth slack for the running batch; admission resumes
			// when completions drain utilization below the watermark. With
			// nothing running to free space, admit anyway to make progress
			// (a single request must always be servable).
			if len(inst.running) > 0 || len(admitted) > 0 {
				break
			}
		}
		slot, err := inst.disp.Dispatch(nr)
		if err != nil {
			// Cannot place: an empty dispatcher is the most room the
			// request will ever get, so there it can never fit — drop it;
			// else wait for cache to free up.
			if inst.disp.Len() == 0 {
				inst.waiting.pop()
				inst.res.Trace.Addf(s.Now(), trace.KindEviction, r.wl.ID, -1, 0, "dropped: cannot ever fit")
				inst.fleet.dropAdmitted(s, r)
				continue
			}
			break
		}
		if !inst.kvAlloc(s, r.wl.ID, ctx) {
			inst.disp.Remove(r.wl.ID)
			break
		}
		inst.handles(r).slot = slot
		inst.waiting.pop()
		admitted = append(admitted, r)
		tokens += r.prefillLen()
	}
	if len(admitted) == 0 {
		return false
	}
	inst.admitBufs[inst.admitNext] = admitted
	prompts := inst.prompts[:0]
	for _, r := range admitted {
		prompts = append(prompts, r.prefillLen())
		inst.byID[r.wl.ID] = r
	}
	inst.prompts = prompts
	dt := inst.prefillTime(prompts, admitted) + inst.pendingDelay
	inst.pendingDelay = 0
	inst.pending = s.After(dt, "prefill-done", inst.prefillDoneFn)
	return true
}

// prefillDone completes the in-flight prefill batch, admitBufs[admitNext]:
// each request still admitted here emits its first token and finishes or
// joins the running batch, and the batch, less its finishers, becomes
// fresh.
func (inst *hetisInstance) prefillDone(s *sim.Simulator) {
	admitted := inst.admitBufs[inst.admitNext]
	inst.admitNext ^= 1
	inst.fresh = admitted
	for _, r := range admitted {
		if inst.byID[r.wl.ID] != r {
			continue // evicted while the batch completed
		}
		if r.firstTok == 0 {
			r.firstTok = s.Now()
		}
		if r.generated == 0 {
			r.generated = 1 // prefill emits the first token
		}
		r.hauled = false
		inst.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindPrefill, Request: r.wl.ID, Value: float64(r.restartCtx)})
		if r.done() {
			inst.finishDeferred(s, r)
			continue
		}
		// Account the first generated token's KV.
		inst.extendToken(s, r)
		inst.running = append(inst.running, r)
	}
	// The finishers leave fresh before the flush recycles their state, so
	// evict can never take a later arrival reusing it for one of them. A
	// live request is never done, so this keeps exactly the batch's
	// requests still in the system.
	inst.fresh = slices.DeleteFunc(admitted, (*request).done)
	inst.fleet.flushFinishes()
	inst.relieveOverflow(s)
	inst.step(s)
}

// prefillTime is the iteration cost of prefilling the admitted prompts:
// dense + prompt attention through all stages, pipeline hops, the LM head,
// and the scatter of pool-resident KV shards.
func (inst *hetisInstance) prefillTime(prompts []int, admitted []*request) float64 {
	cfg := inst.cfg
	dt := inst.pipe.prefillTime(cfg, prompts)

	// KV scatter: shards dispatched to pool workers ship over their links
	// concurrently; the slowest leg gates the iteration.
	groupTok := cfg.Model.KVBytesPerTokenHeadGroup() * int64(cfg.Model.Layers)
	r := cfg.Model.GroupRatio()
	var maxLeg float64
	for wi := len(inst.pipe.stages); wi < inst.disp.NumWorkers(); wi++ {
		var bytes int64
		for _, req := range admitted {
			x := inst.disp.PlacementView(req.wl.ID)
			if x == nil || x[wi] == 0 {
				continue
			}
			bytes += int64(x[wi]/r) * int64(req.restartCtx) * groupTok
		}
		if bytes > 0 {
			if leg := perf.P2PTime(inst.workerLink[wi], bytes); leg > maxLeg {
				maxLeg = leg
			}
		}
	}
	return dt + maxLeg
}

// tryDecode runs one decode iteration over the running batch.
func (inst *hetisInstance) tryDecode(s *sim.Simulator) bool {
	if len(inst.running) == 0 {
		return false
	}
	cfg := inst.cfg
	batch := len(inst.running)

	// The dense side is a pure function of (stage layout, batch), so the
	// pipeline memoizes it; attention depends on the live head assignment
	// and is recomputed every iteration.
	cost := inst.pipe.denseCostFor(cfg, batch)
	attnPerLayer := inst.disp.AttnStepTime()
	attn := float64(cfg.Model.Layers) * attnPerLayer

	// §7.3 module metrics.
	if !cfg.NoTrace {
		inst.res.DenseTimes.Append(cost.module)
		p := inst.pipe
		if p.attnScratch == nil {
			p.attnScratch = make([]float64, len(p.stages))
		}
		for k, st := range p.stages {
			p.attnScratch[k] = float64(st.Layers) * attnPerLayer
		}
		inst.res.AttnTimes.Append(moduleLatency(p.attnScratch))
	}

	dt := cost.dense + attn + inst.pendingDelay
	inst.pendingDelay = 0
	inst.pending = s.After(dt, "decode-done", inst.decodeDone)
	return true
}

// onDecodeDone is the decode-completion callback.
func (inst *hetisInstance) onDecodeDone(s *sim.Simulator) {
	inst.afterDecode(s)
	inst.step(s)
}

// afterDecode advances every running request by one token and runs the
// §5.3 maintenance: memory-pressure handling and compute re-balancing.
//
// The step is batched whenever batchedStep allows: the finishers leave,
// then the dispatcher and every block manager advance all remaining
// requests at once, in O(workers). Otherwise it walks the batch request by
// request, extending each in turn — the one order that reproduces a block
// shortage's mid-batch evictions, and the one other path the step keeps.
func (inst *hetisInstance) afterDecode(s *sim.Simulator) {
	cfg := inst.cfg
	// still reuses a second buffer double-swapped with running, so the
	// per-iteration batch rebuild allocates nothing once warm.
	still := inst.stillBuf[:0]
	inst.res.DecodeSteps++
	inst.fresh, inst.holdAdmission = nil, false
	if inst.batchedStep() {
		for _, r := range inst.running {
			r.generated++
			if r.done() {
				inst.finishDeferred(s, r)
				continue
			}
			still = append(still, r)
		}
		if cfg.checkStep != nil {
			cfg.checkStep(inst, still)
		}
		inst.disp.Advance()
		for _, m := range inst.kv {
			// Cannot fail: batchedStep saw every manager's demand fit
			// before the finishers freed blocks.
			_ = m.Advance()
		}
	} else {
		inst.res.PerRequestSteps++
		// Survivors collect in inst.running itself, so a mid-batch
		// eviction (evict splices inst.running) removes an already
		// advanced victim from the new batch, and the loop skips one whose
		// turn is still to come, which evict dropped from byID.
		batch := inst.running
		inst.running = still
		for _, r := range batch {
			if inst.byID[r.wl.ID] != r {
				continue // evicted earlier in this step
			}
			r.generated++
			if r.done() {
				inst.finishDeferred(s, r)
				continue
			}
			inst.extendToken(s, r)
			inst.running = append(inst.running, r)
		}
		still, inst.running = inst.running, batch
	}
	inst.fleet.flushFinishes()
	// Every pointer the retired batch holds lies within its length: the
	// splices zero the slot they vacate, and evacuate clears the batch.
	prev := inst.running
	inst.running = still
	clear(prev)
	inst.stillBuf = prev[:0]
	inst.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindDecode, Value: float64(len(still))})

	inst.relieveOverflow(s)
	inst.decodeSteps++
	if !cfg.DisableRedispatch && len(inst.running) > 0 && inst.decodeSteps%rebalanceEvery == 0 {
		// Requests migrated within the last 2·rebalanceEvery decode steps
		// are exempt from further re-dispatching, to damp ping-pong.
		frozen := func(id int64) bool {
			step, ok := inst.lastMig[id]
			return ok && inst.decodeSteps-step < 2*rebalanceEvery
		}
		if rd, err := inst.disp.RebalanceCompute(cfg.Theta, frozen); err == nil && rd != nil {
			inst.applyRedispatch(s, rd)
		}
	}
	inst.trackPeak()
}

// batchedStep reports whether this decode step may advance the batch at
// once, and if so sets overflowHit to the workers the per-request loop
// would flag. Three conditions make the batched step indistinguishable
// from that loop:
//   - the batch is exactly the tracked requests, each once: every tracked
//     request is running (the tests' checkStep asserts it), so equal
//     counts leave no room for an untracked or repeated entry;
//   - no block manager can run short: each one's demand for all its
//     entries, the finishers' too, fits its free blocks, so no extension
//     fails whatever finishes first;
//   - the flags do not depend on the batch order (dispatch.StepOverflow).
func (inst *hetisInstance) batchedStep() bool {
	if inst.cfg.perRequestSteps || len(inst.running) != inst.disp.Len() {
		return false
	}
	for _, m := range inst.kv {
		if m.StepDemand() > m.FreeBlocks() {
			return false
		}
	}
	fin := inst.finishing[:0]
	for _, r := range inst.running {
		if r.generated+1 < r.wl.OutputLen {
			continue // r.done() stays false after this step's token
		}
		hx := inst.handles(r)
		if hx.slot = inst.disp.Resolve(hx.slot, r.wl.ID); hx.slot == nil {
			return false
		}
		fin = append(fin, hx.slot)
	}
	ok := inst.disp.StepOverflow(fin, inst.overflowHit)
	clear(fin)
	inst.finishing = fin[:0]
	return ok
}

// relieveOverflow runs §5.3.2 on every worker overflowHit flags, in
// ascending worker order, clearing the flags.
func (inst *hetisInstance) relieveOverflow(s *sim.Simulator) {
	for w, hit := range inst.overflowHit {
		if hit {
			inst.overflowHit[w] = false
			inst.handleMemoryPressure(s, w)
		}
	}
}

// underWatermark reports whether admitting ctx more tokens of full-head
// cache keeps the instance below the admission watermark.
func (inst *hetisInstance) underWatermark(ctx int) bool {
	var used, capTotal float64
	for i, w := range inst.disp.Workers() {
		used += inst.disp.CacheBytes(i)
		capTotal += w.CapacityBytes
	}
	if capTotal <= 0 {
		return false
	}
	add := float64(inst.cfg.Model.Heads) * float64(ctx) *
		float64(inst.cfg.Model.KVBytesPerTokenHeadGroup()) / float64(inst.cfg.Model.GroupRatio())
	return (used+add)/capTotal <= admitWatermark
}

// kvAlloc mirrors a dispatch placement into the block managers.
func (inst *hetisInstance) kvAlloc(s *sim.Simulator, id int64, ctx int) bool {
	x := inst.disp.PlacementView(id)
	if x == nil {
		return false
	}
	r := inst.cfg.Model.GroupRatio()
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		if err := inst.kv[i].Alloc(kvcache.RequestID(id), heads/r, ctx); err != nil {
			// Roll back earlier workers.
			for j := 0; j < i; j++ {
				inst.kv[j].Free(kvcache.RequestID(id))
			}
			return false
		}
	}
	return true
}

// hetisHandles is a request's cached handles into one instance's
// dispatcher and block managers, so the per-token path reaches its records
// without hashing. Every use resolves them first: a handle gone stale (the
// request was redispatched, evicted or finished) is detected by the owner
// and id checks and refreshed by one lookup. A request moved to another
// replica gets a fresh set from that replica.
type hetisHandles struct {
	owner *hetisInstance
	slot  *dispatch.Slot
	kv    []*kvcache.Entry // by dispatcher worker index
}

// handleSlabChunk is the number of handle sets an instance carves per
// allocation (with their per-worker entry arrays), so caching handles
// costs no allocation per request. Sets are never reused.
const handleSlabChunk = 64

// handles returns r's handle set for this instance, carving a fresh one
// from the instance's slab on r's first token here.
func (inst *hetisInstance) handles(r *request) *hetisHandles {
	if r.hx != nil && r.hx.owner == inst {
		return r.hx
	}
	n := len(inst.kv)
	if len(inst.hxSlab) == 0 {
		inst.hxSlab = make([]hetisHandles, handleSlabChunk)
		inst.kvSlab = make([]*kvcache.Entry, handleSlabChunk*n)
	}
	hx := &inst.hxSlab[0]
	inst.hxSlab = inst.hxSlab[1:]
	hx.owner = inst
	hx.kv = inst.kvSlab[:n:n]
	inst.kvSlab = inst.kvSlab[n:]
	r.hx = hx
	return hx
}

// extendToken accounts one freshly generated token of r alone: the
// dispatcher's per-worker cache load first, flagging in overflowHit the
// workers whose dispatch capacity the growth overflows, then the block
// managers (kvExtend). A request the dispatcher does not track is left
// alone.
func (inst *hetisInstance) extendToken(s *sim.Simulator, r *request) {
	hx := inst.handles(r)
	hx.slot = inst.disp.Resolve(hx.slot, r.wl.ID)
	if hx.slot == nil {
		return
	}
	_ = inst.disp.ExtendSlot(hx.slot, 1, inst.overflowHit) // the handle was just resolved
	inst.kvExtend(s, hx, r.wl.ID)
}

// kvExtend grows the block allocation by one token on every worker holding
// the request (per hx's resolved dispatcher record), force-evicting other
// requests on block exhaustion. A worker where the request holds no blocks
// — its allocation there failed during a redispatch — is skipped:
// evicting others cannot create an allocation that does not exist.
func (inst *hetisInstance) kvExtend(s *sim.Simulator, hx *hetisHandles, id int64) {
	for _, sh := range hx.slot.Shares() {
		i := sh.Worker
		m := inst.kv[i]
		e := m.Resolve(hx.kv[i], kvcache.RequestID(id))
		hx.kv[i] = e
		for {
			err := m.ExtendEntry(e, 1)
			if err == nil || !errors.Is(err, kvcache.ErrNoSpace) {
				break
			}
			if !inst.evictOn(s, i, id) {
				return // nothing left to evict; accounting stays best-effort
			}
		}
	}
}

// kvFree releases a request everywhere.
func (inst *hetisInstance) kvFree(id int64) {
	for _, m := range inst.kv {
		m.Free(kvcache.RequestID(id))
	}
}

// handleMemoryPressure implements §5.3.2 for one exhausted worker: first
// try re-dispatching the device's newest request into cluster slack, then
// fall back to eviction. Memory pressure overrides the migration cooldown:
// relieving an exhausted device beats damping.
func (inst *hetisInstance) handleMemoryPressure(s *sim.Simulator, w int) {
	cfg := inst.cfg
	if !cfg.DisableRedispatch {
		inst.idScratch = inst.kv[w].AppendRequests(inst.idScratch[:0])
		for _, id := range newestFirst(inst.idScratch, inst.byID) {
			if inst.disp.CacheBytes(w) <= inst.disp.Workers()[w].CapacityBytes {
				return
			}
			rd, err := inst.disp.RebalanceMemory(w, []int64{int64(id)})
			if err != nil || rd == nil {
				break
			}
			inst.applyRedispatch(s, rd)
		}
		if inst.disp.CacheBytes(w) <= inst.disp.Workers()[w].CapacityBytes {
			return
		}
	}
	// Eviction. Plain LIFO (baseline) picks the globally newest running
	// request, tiers or not; Hetis' modified LIFO picks the newest holding
	// memory on w.
	for inst.disp.CacheBytes(w) > inst.disp.Workers()[w].CapacityBytes {
		var victim int64 = -1
		if cfg.DisableRedispatch {
			if i := pickVictim(inst.running, false, anyPrio); i >= 0 {
				victim = inst.running[i].wl.ID
			}
		} else if v, ok := inst.kv[w].VictimLIFO(); ok {
			victim = int64(v)
		}
		if victim < 0 {
			return
		}
		if !inst.evict(s, victim) {
			return
		}
	}
}

// newestFirst sorts request IDs in place by arrival sequence, newest
// first, reading each request's seq through the instance's byID index
// (sequences are unique, so the input order cannot matter). IDs without a
// live request sort oldest, mirroring the zero-value reads the old
// fleet-level sequence map gave them.
func newestFirst(ids []kvcache.RequestID, byID map[int64]*request) []kvcache.RequestID {
	seqOf := func(id kvcache.RequestID) int64 {
		if r, ok := byID[int64(id)]; ok {
			return r.seq
		}
		return 0
	}
	slices.SortFunc(ids, func(a, b kvcache.RequestID) int { return cmp.Compare(seqOf(b), seqOf(a)) })
	return ids
}

// evictOn evicts the LIFO victim holding blocks on worker w, preferring a
// request other than protect.
func (inst *hetisInstance) evictOn(s *sim.Simulator, w int, protect int64) bool {
	id, ok := inst.kv[w].VictimLIFOExcept(kvcache.RequestID(protect))
	return ok && inst.evict(s, int64(id))
}

// evict removes a request from the batch and recycles it to the waiting
// queue for recomputation.
func (inst *hetisInstance) evict(s *sim.Simulator, id int64) bool {
	r, ok := inst.byID[id]
	if !ok {
		return false
	}
	inst.disp.Remove(id)
	inst.kvFree(id)
	for k, rr := range inst.running {
		if rr.wl.ID == id {
			inst.running = slices.Delete(inst.running, k, k+1)
			break
		}
	}
	delete(inst.byID, id)
	if slices.Contains(inst.fresh, r) {
		inst.holdAdmission = true
	}
	inst.fleet.evictForRecompute(s, r, true)
	inst.waiting.pushFront(r)
	return true
}

// preemptFor evicts the cheapest strictly-lower-priority running request
// so r can admit (multi-tier chaos only): lowest priority first, newest
// within a priority. The victim requeues — preemption costs latency, not a
// completion. Returns false when no lower-priority victim exists.
func (inst *hetisInstance) preemptFor(s *sim.Simulator, r *request) bool {
	idx := pickVictim(inst.running, inst.fleet.ctl.tiered(), r.prio)
	if idx < 0 {
		return false
	}
	v := inst.running[idx]
	inst.running = slices.Delete(inst.running, idx, idx+1)
	inst.disp.Remove(v.wl.ID)
	inst.kvFree(v.wl.ID)
	delete(inst.byID, v.wl.ID)
	delete(inst.lastMig, v.wl.ID)
	inst.fleet.evictForRecompute(s, v, false)
	inst.fleet.ctl.notePreempt(s, v)
	inst.waiting.push(v)
	return true
}

// applyRedispatch moves block allocations to match a new placement and
// accounts the migration (overlapped on low-priority streams unless the
// blocking ablation is on).
func (inst *hetisInstance) applyRedispatch(s *sim.Simulator, rd *dispatch.Redispatch) {
	cfg := inst.cfg
	r := cfg.Model.GroupRatio()
	ctx := inst.disp.ContextLen(rd.Request)
	groupTok := cfg.Model.KVBytesPerTokenHeadGroup() * int64(cfg.Model.Layers)

	oldGroups, newGroups := inst.migOld[:0], inst.migNew[:0]
	for i := range rd.Old {
		oldGroups = append(oldGroups, max(rd.Old[i], 0)/r)
		newGroups = append(newGroups, max(rd.New[i], 0)/r)
	}
	inst.migOld, inst.migNew = oldGroups, newGroups
	moves, err := kvcache.PlanMigration(inst.moves[:0], oldGroups, newGroups, ctx, groupTok)
	inst.moves = moves
	if err != nil {
		return
	}
	// Apply to managers: shrink sources first to free blocks, then grow
	// destinations.
	id := kvcache.RequestID(rd.Request)
	for i := range inst.kv {
		oldG, newG := oldGroups[i], newGroups[i]
		if newG < oldG {
			if newG == 0 {
				inst.kv[i].Free(id)
			} else {
				_ = inst.kv[i].ShrinkGroups(id, oldG-newG)
			}
		}
	}
	for i := range inst.kv {
		oldG, newG := oldGroups[i], newGroups[i]
		if newG > oldG {
			var err error
			if oldG == 0 {
				err = inst.kv[i].Alloc(id, newG, ctx)
			} else {
				err = inst.kv[i].GrowGroups(id, newG-oldG)
			}
			for errors.Is(err, kvcache.ErrNoSpace) {
				if !inst.evictOn(s, i, rd.Request) {
					break
				}
				if oldG == 0 {
					err = inst.kv[i].Alloc(id, newG, ctx)
				} else {
					err = inst.kv[i].GrowGroups(id, newG-oldG)
				}
			}
		}
	}
	bytes := kvcache.TotalMoveBytes(moves)
	inst.lastMig[rd.Request] = inst.decodeSteps
	inst.res.Migrations++
	inst.res.MigratedBytes += bytes
	inst.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindRedispatch, Request: rd.Request, Value: float64(bytes)})
	if cfg.BlockingMigration && len(moves) > 0 {
		var maxLeg float64
		for _, mv := range moves {
			link := inst.cfg.Cluster.Link(inst.workerDev[mv.From], inst.workerDev[mv.To])
			if t := perf.P2PTime(link, mv.Bytes); t > maxLeg {
				maxLeg = t
			}
		}
		inst.pendingDelay += maxLeg
	}
}

// finishDeferred is finish with the sink append batched (see
// fleetCore.finishDeferred); the iteration loops use it and flush once
// per batch. The dispatcher/KV release stays inline: later requests in
// the same loop observe the freed capacity exactly as before.
func (inst *hetisInstance) finishDeferred(s *sim.Simulator, r *request) {
	inst.disp.Remove(r.wl.ID)
	inst.kvFree(r.wl.ID)
	delete(inst.byID, r.wl.ID)
	delete(inst.lastMig, r.wl.ID)
	inst.fleet.finishDeferred(s, r)
}

func (inst *hetisInstance) trackPeak() {
	var used int64
	for _, m := range inst.kv {
		used += m.UsedBytes()
	}
	if used > inst.res.PeakCacheUsed {
		inst.res.PeakCacheUsed = used
	}
}

// sample records per-device head counts and cache utilization (Fig. 14).
// An untraced run keeps no series: its timer still fires, so the event
// count does not depend on NoTrace, but nothing is appended.
func (inst *hetisInstance) sample(now float64) {
	if inst.cfg.NoTrace {
		return
	}
	for i, dev := range inst.workerDev {
		hs, ok := inst.res.HeadSeries[dev]
		if !ok {
			hs = &metrics.Series{Name: fmt.Sprintf("heads-%d", int(dev))}
			inst.res.HeadSeries[dev] = hs
		}
		hs.Append(now, inst.disp.Heads(i))

		cs, ok := inst.res.CacheSeries[dev]
		if !ok {
			cs = &metrics.Series{Name: fmt.Sprintf("cache-%d", int(dev))}
			inst.res.CacheSeries[dev] = cs
		}
		cs.Append(now, inst.kv[i].Utilization()*100)
	}
}

// Profile returns the fitted attention/network models the engine plans
// with.
func (h *Hetis) Profile() *profile.Profile { return h.prof }
