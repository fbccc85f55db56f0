package engine

import (
	"fmt"

	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// HexGen is the parameter-splitting baseline (§7.1): a single static
// pipeline whose stages hold asymmetric layer counts balanced by device
// throughput; prefill and decode share the same workers. Its weakness is
// exactly what §2.3 describes — cache capacity is bounded by the tightest
// stage and low-end GPUs drag every dense module.
type HexGen struct {
	cfg  Config
	pipe *stagePipeline
}

// NewHexGen builds the baseline over the whole cluster.
func NewHexGen(cfg Config) (*HexGen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	est, err := perf.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	pipe, err := buildStaticPipeline(cfg, est, cfg.Cluster, cfg.Cluster.DevicesByType(), 32)
	if err != nil {
		return nil, fmt.Errorf("engine: hexgen: %w", err)
	}
	return &HexGen{cfg: cfg, pipe: pipe}, nil
}

// Name implements Engine.
func (h *HexGen) Name() string { return "hexgen" }

// CacheCapacity implements Engine.
func (h *HexGen) CacheCapacity() int64 { return h.pipe.cacheCapacityBytes() }

// Stages exposes the static layout for tests and experiments.
func (h *HexGen) Stages() []parallelizer.Stage { return h.pipe.stages }

// Run implements Engine.
func (h *HexGen) Run(reqs []workload.Request, horizon float64) (*Result, error) {
	return runStatic(h.Name(), h.cfg, h.pipe, h.CacheCapacity(), reqs, horizon)
}

// runStatic is the shared Run body of the two static-pipeline engines: a
// replica set of one staticRuntime, widened by chaos.
func runStatic(name string, cfg Config, pipe *stagePipeline, capBytes int64, reqs []workload.Request, horizon float64) (*Result, error) {
	f := newReplicaSet[*staticRuntime](name, cfg, capBytes, len(reqs))
	err := f.provision(1, func(int) (*staticRuntime, error) {
		rt := &staticRuntime{
			tokenPool: tokenPool{cfg: cfg, pipe: pipe, res: f.res, fleet: &f.fleetCore},
			waiting:   newWaitQueue(f.ctl.tiered()),
		}
		rt.requeueQ = rt.waiting
		rt.requeued = rt.unadmit
		rt.finished = rt.retire
		rt.stepFn = rt.step
		rt.prefillDoneFn = rt.prefillDone
		rt.decodeDoneFn = rt.decodeDone
		return rt, nil
	})
	if err != nil {
		return nil, err
	}
	return f.run(reqs, horizon, nil)
}

// staticRuntime is the colocated continuous-batching loop shared shape
// with Hetis' instance, but with token-count cache accounting (its
// tokenPool, which also charges prefill admissions) and no dynamic
// dispatch. It is one replica of a replicaSet; a healthy run is a set of
// one, which behaves exactly like the original single runtime.
type staticRuntime struct {
	tokenPool

	// pending is the replica's single outstanding loop event (step,
	// prefill, or decode completion) — what a failure cancels.
	pending sim.Handle

	waiting *waitQueue
	// admitted counts the requests admitted and not yet requeued or
	// retired: the in-flight prefill batch plus the running batch.
	admitted int
	busy     bool

	// Cached loop callbacks and per-iteration scratch: the batching loop
	// schedules one of these every iteration, and caching the method
	// values (plus reusing the batch/prompt buffers) makes an iteration
	// allocation-free — at most one loop event is pending per replica, so
	// a single buffer per runtime is safe.
	stepFn        func(*sim.Simulator)
	prefillDoneFn func(*sim.Simulator)
	decodeDoneFn  func(*sim.Simulator)
	prefillBatch  []*request
	promptBuf     []int
}

// load implements replica: admitted plus waiting requests.
func (rt *staticRuntime) load() int { return rt.admitted + rt.waiting.len() }

// held implements replica: waiting, running and in-flight prefill.
func (rt *staticRuntime) held() int {
	return rt.waiting.len() + len(rt.running) + len(rt.prefillBatch)
}

// intake implements replica.
func (rt *staticRuntime) intake() *waitQueue { return rt.waiting }

// evacuate implements replica: the running batch is resident; requests
// admitted to an in-flight prefill hold no KV yet. A prefill batch is
// non-empty only while its prefill is in flight, so the two batches are
// every admitted request.
func (rt *staticRuntime) evacuate(s *sim.Simulator) ([]*request, map[int64]bool) {
	if rt.busy {
		s.Cancel(rt.pending)
		rt.busy = false
	}
	batch := rt.tokenPool.evacuate()
	resident := make(map[int64]bool, len(batch))
	for _, r := range batch {
		resident[r.wl.ID] = true
	}
	victims := make([]*request, 0, len(batch)+len(rt.prefillBatch))
	victims = append(victims, batch...)
	victims = append(victims, rt.prefillBatch...)
	clear(rt.prefillBatch)
	rt.prefillBatch = rt.prefillBatch[:0]
	rt.admitted = 0
	return victims, resident
}

func (rt *staticRuntime) kick(s *sim.Simulator) {
	if rt.busy {
		return
	}
	rt.busy = true
	rt.pending = s.After(0, "hexgen-step", rt.stepFn)
}

func (rt *staticRuntime) step(s *sim.Simulator) {
	switch {
	case rt.tryPrefill(s):
	case len(rt.running) > 0:
		rt.pending = rt.launchDecode(s, "hexgen-decode", rt.decodeDoneFn)
	default:
		rt.busy = false
	}
}

func (rt *staticRuntime) tryPrefill(s *sim.Simulator) bool {
	cfg := &rt.cfg
	admitted := rt.prefillBatch[:0]
	tokens := 0
	for rt.waiting.len() > 0 &&
		len(admitted) < maxPrefillRequests &&
		len(rt.running)+len(admitted) < maxRunning {
		r := rt.waiting.peek()
		ctx := int64(r.restartCtx)
		if rt.fleet.ctl.tiered() && rt.used+ctx > rt.pipe.tokenCap && len(admitted) == 0 {
			rt.preemptFor(s, r.prio, ctx)
		}
		if rt.used+ctx > rt.pipe.tokenCap {
			if len(rt.running) == 0 && len(admitted) == 0 && ctx > rt.pipe.tokenCap {
				rt.waiting.pop() // can never fit
				rt.res.Trace.Addf(s.Now(), trace.KindEviction, r.wl.ID, -1, 0, "dropped: exceeds cache")
				rt.fleet.dropAdmitted(s, r)
				continue
			}
			break
		}
		if tokens+r.prefillLen() > maxPrefillTokens && len(admitted) > 0 {
			break
		}
		rt.waiting.pop()
		rt.used += ctx
		tokens += r.prefillLen()
		admitted = append(admitted, r)
		rt.admitted++
	}
	rt.prefillBatch = admitted
	if len(admitted) == 0 {
		return false
	}
	prompts := rt.promptBuf[:0]
	for _, r := range admitted {
		prompts = append(prompts, r.prefillLen())
	}
	rt.promptBuf = prompts
	dt := rt.pipe.prefillTime(cfg, prompts)
	rt.pending = s.After(dt, "hexgen-prefill", rt.prefillDoneFn)
	return true
}

// prefillDone is the prefill-completion callback over the batch stashed in
// prefillBatch (only one loop event is ever pending, so the batch cannot
// be overwritten before it fires).
func (rt *staticRuntime) prefillDone(s *sim.Simulator) {
	for _, r := range rt.prefillBatch {
		if r.firstTok == 0 {
			r.firstTok = s.Now()
		}
		if r.generated == 0 {
			r.generated = 1
			rt.used++ // cache of the first generated token
		}
		r.hauled = false
		if r.done() {
			rt.release(r)
			rt.retire(s, r)
		} else {
			rt.join(r)
		}
	}
	rt.fleet.flushFinishes()
	rt.step(s)
}

// decodeDone is the decode-completion callback.
func (rt *staticRuntime) decodeDone(s *sim.Simulator) {
	rt.afterDecode(s)
	rt.step(s)
}

// unadmit is the pool's requeue hook: a victim is no longer admitted.
func (rt *staticRuntime) unadmit(*sim.Simulator, *request) { rt.admitted-- }

// retire hands a request whose cache is released to the fleet, with the
// sink append batched (see fleetCore.finishDeferred); the iteration loops
// flush once per batch.
func (rt *staticRuntime) retire(s *sim.Simulator, r *request) {
	rt.admitted--
	rt.fleet.finishDeferred(s, r)
}
