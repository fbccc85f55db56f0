// replicaSet is every engine's chaos fleet: a run serves through N replicas
// of one engine runtime (a static pipeline, a phase-split pair, or a Hetis
// instance), and the set owns routing, failure handling, KV hauling, and
// scale operations for all of them, so a chaos behaviour is written once
// and holds for every engine. A healthy run is a set of the engine's base
// width with a nil controller — every path then degenerates to the legacy
// single-runtime behaviour that the golden traces pin.

package engine

import (
	"fmt"
	"math"
	"sort"

	"hetis/internal/metrics"
	"hetis/internal/perf"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// replicaState is one replica's lifecycle position.
type replicaState int

const (
	replicaActive replicaState = iota
	replicaFailed
	replicaParked // provisioned but not serving (autoscale headroom)
)

// fleetCore is the replica-type-independent bookkeeping of a run: global
// arrival sequencing, the conservation ledger, the parked backlog, and the
// serialized KV-haul link. Runtimes hold a pointer to it for the ledger
// and the chaos controller.
type fleetCore struct {
	cfg  Config
	res  *Result
	ctl  *chaosCtl
	sink metrics.Sink

	// nextSeq numbers arrivals globally (stamped onto request.seq); victim
	// selection ("newest first") compares within one replica, where the
	// global order agrees with any per-replica numbering.
	nextSeq int64
	// inSystem counts admitted requests not yet finished or dropped —
	// the Queued term of the conservation ledger.
	inSystem int
	// parked holds admitted requests with no active replica to run on.
	parked queue
	// haulFree is when the haul link next frees up (transfers serialize).
	haulFree float64
	// hauling counts the requests whose KV is in transit to a survivor.
	hauling int
	// recBatch buffers one iteration's completion records: afterDecode
	// loops fill it through finishDeferred and flush it with one batched
	// sink append before the event callback returns.
	recBatch []metrics.RequestRecord
	// pool recycles the state of completed requests into later arrivals;
	// finishDeferred retires a request and flushFinishes recycles it.
	pool requestPool
}

// dropAdmitted records the drop of an already-admitted request (the
// unservable-size paths), closing its conservation slot.
func (c *fleetCore) dropAdmitted(s *sim.Simulator, r *request) {
	c.ctl.release(r)
	c.inSystem--
	c.res.Dropped++
	recordDrop(c.sink, r, s.Now())
	c.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindDrop, Request: r.wl.ID, Note: r.wl.Tenant})
}

// finishDeferred runs the shared completion bookkeeping with the sink
// append buffered: ledger, counter, and trace updates happen immediately
// (so trace-event order is untouched), while the completion record waits
// in recBatch for one batched sink call. It is the one point where a
// request retires: the request joins the pool's retired list. Callers must
// flushFinishes before their event callback returns, and must not read r
// after that flush.
func (c *fleetCore) finishDeferred(s *sim.Simulator, r *request) {
	c.ctl.release(r)
	c.inSystem--
	c.recBatch = append(c.recBatch, finishRecord(r, s.Now()))
	c.res.Completed++
	c.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindFinish, Request: r.wl.ID})
	c.pool.retired = append(c.pool.retired, r)
}

// flushFinishes observes the buffered completion records in order, clears
// the buffer (dropping its tenant-string references) for reuse, and
// recycles the requests they retired.
func (c *fleetCore) flushFinishes() {
	if len(c.recBatch) == 0 {
		return
	}
	metrics.ObserveAll(c.sink, c.recBatch)
	clear(c.recBatch)
	c.recBatch = c.recBatch[:0]
	c.pool.recycle()
}

// loseVictim applies lost-KV failure semantics: the request re-prefills
// its full accumulated context on whichever replica it lands on.
func (c *fleetCore) loseVictim(s *sim.Simulator, r *request) {
	r.hauled = false
	c.res.Evictions++
	c.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindEviction, Request: r.wl.ID})
}

// evictForRecompute takes a request's KV away mid-flight: its next
// prefill recomputes the whole context it has accumulated. counted
// records the loss as an eviction (cache overflow, failure); a priority
// preemption leaves it to chaosCtl.notePreempt instead.
func (c *fleetCore) evictForRecompute(s *sim.Simulator, r *request, counted bool) {
	r.evicted = true
	r.restartCtx = r.contextLen()
	r.hauled = false
	if counted {
		c.loseVictim(s, r)
	}
}

// anyPrio is the victim limit that makes every running request a
// candidate (cache overflow, as opposed to a priority preemption).
const anyPrio = math.MaxInt

// pickVictim is every engine's eviction and preemption rule. It returns
// the index of the running request to evict among those with priority
// below limit, or -1 when there is none: under multi-tier chaos the
// lowest priority first and the newest (highest seq) within it, otherwise
// the newest regardless of priority (plain LIFO). seq is unique within a
// run, so the choice does not depend on the order of running — tokenPool
// reorders its batch on every removal.
func pickVictim(running []*request, tiered bool, limit int) int {
	idx := -1
	for i, v := range running {
		if v.prio >= limit {
			continue
		}
		if idx < 0 {
			idx = i
			continue
		}
		b := running[idx]
		if tiered && v.prio != b.prio {
			if v.prio < b.prio {
				idx = i
			}
			continue
		}
		if v.seq > b.seq {
			idx = i
		}
	}
	return idx
}

// replica is the surface an engine runtime exposes to its replicaSet.
type replica interface {
	// load is the routing key: the replica's in-system request count.
	load() int
	// intake is the queue routed work enters, and the queue a newly
	// activated replica steals from.
	intake() *waitQueue
	// kick starts the intake loop if it is idle.
	kick(s *sim.Simulator)
	// held counts the requests the replica holds, read from its queues and
	// batches (its intake plus everything evacuate would return), so the
	// conservation ledger can check inSystem against what is really there.
	held() int
	// evacuate tears the replica down for deactivation: it cancels its
	// pending events, clears engine-local state, and returns every request
	// it held outside the intake queue (in any order) plus the IDs whose KV
	// cache is resident and can therefore be hauled.
	evacuate(s *sim.Simulator) (victims []*request, resident map[int64]bool)
}

// replicaSet is the one chaosFleet. Replica indices are stable across
// kill/revive; state[i] is replica i's lifecycle position.
type replicaSet[R replica] struct {
	fleetCore
	replicas []R
	state    []replicaState
	// land, when set, places a hauled request on the survivor the set
	// picked; nil re-enters it through the survivor's intake like any
	// routed request.
	land func(R, *sim.Simulator, *request)
}

// newReplicaSet opens a run the same way for every engine: it builds the
// Result, sized for the n requests of the trace, and under active chaos
// interposes the controller on the run's sink. The engine then provisions
// its replicas and calls run, whose arrivals clamp each request to the
// context window as it is admitted; the trace itself is never copied.
func newReplicaSet[R replica](name string, cfg Config, capBytes int64, n int) *replicaSet[R] {
	sink, rec := cfg.newRunSink(n)
	res := &Result{
		Engine:        name,
		Sink:          sink,
		Recorder:      rec,
		Trace:         cfg.newTraceLog(),
		CacheCapacity: capBytes,
	}
	f := &replicaSet[R]{fleetCore: fleetCore{cfg: cfg, res: res, sink: sink, pool: requestPool{poison: cfg.poisonRetired}}}
	if chaos := cfg.Chaos.normalize(); chaos != nil {
		f.ctl = newChaosCtl(chaos, res, res.Trace, sink)
		f.ctl.bind(f)
		f.sink = f.ctl
	}
	return f
}

// provision builds the set's replicas for an engine whose healthy
// deployment has base of them. Chaos may start wider and pre-provisions
// every replica the autoscaler or a failure window can name; replicas past
// the initial width start parked.
func (f *replicaSet[R]) provision(base int, build func(i int) (R, error)) error {
	width, total := base, base
	if f.ctl != nil {
		width = max(base, f.ctl.cfg.initialReplicas())
		total = max(width, f.ctl.cfg.maxReplicas())
	}
	for i := 0; i < total; i++ {
		rt, err := build(i)
		if err != nil {
			return err
		}
		st := replicaParked
		if i < width {
			st = replicaActive
		}
		f.replicas = append(f.replicas, rt)
		f.state = append(f.state, st)
	}
	return nil
}

// run serves the trace to the horizon and returns the run's Result.
// Failure and autoscale events are scheduled first, then the arrivals,
// then the engine's own timers (nil for none), which fixes the event
// sequence numbers the goldens pin.
func (f *replicaSet[R]) run(reqs []workload.Request, horizon float64, timers func(*sim.Simulator)) (*Result, error) {
	s := sim.New()
	s.MaxEvents = f.cfg.MaxSimEvents(len(reqs))
	f.ctl.start(s)
	if err := scheduleArrivals(s, reqs, f.cfg.Model.MaxSeqLen, &f.pool, f.arrive); err != nil {
		return nil, err
	}
	if timers != nil {
		timers(s)
	}
	if err := s.Run(horizon); err != nil {
		return nil, err
	}
	f.res.Horizon = s.Now()
	f.res.Events = s.Executed
	// Queued is what the park, the replicas and the in-flight hauls hold;
	// a request lost on the way (say, by a faulty evacuate) shows as a gap
	// against the ledger instead of balancing it.
	f.res.Queued = f.parked.len() + f.hauling
	for _, rt := range f.replicas {
		f.res.Queued += rt.held()
	}
	if f.res.Queued != f.inSystem {
		return nil, fmt.Errorf("engine %s: conservation gap of %d: the run ends holding %d requests, but %d were admitted and not finished",
			f.res.Engine, f.inSystem-f.res.Queued, f.res.Queued, f.inSystem)
	}
	return f.res, nil
}

// arrive runs the arrival bookkeeping — sequence number, arrival trace,
// tier admission — and routes the request unless admission dropped it.
func (f *replicaSet[R]) arrive(s *sim.Simulator, r *request) {
	r.seq = f.nextSeq
	f.nextSeq++
	f.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindArrival, Request: r.wl.ID})
	if !f.ctl.admit(s, r) {
		return
	}
	f.inSystem++
	f.route(s, r)
}

// pick returns the least-loaded active replica (ties to the lowest index),
// or -1 when none is serving.
func (f *replicaSet[R]) pick() int {
	best, bestLoad := -1, 0
	for i, rt := range f.replicas {
		if f.state[i] != replicaActive {
			continue
		}
		if l := rt.load(); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// route sends a request to the least-loaded active replica's intake, or
// parks it when no replica is serving (a reviving replica drains the park).
func (f *replicaSet[R]) route(s *sim.Simulator, r *request) {
	i := f.pick()
	if i < 0 {
		f.park(s, r)
		return
	}
	rt := f.replicas[i]
	rt.intake().push(r)
	rt.kick(s)
}

// park holds a request until a replica activates. A hauled request's KV
// has no replica left to live on, so it is lost: the request re-prefills
// its full context wherever it lands.
func (f *replicaSet[R]) park(s *sim.Simulator, r *request) {
	if r.hauled {
		f.loseVictim(s, r)
	}
	f.parked.push(r)
}

// haul ships a victim's KV cache toward a survivor over the cluster
// interconnect; transfers serialize on the link, and the request lands
// when its transfer completes.
func (f *replicaSet[R]) haul(s *sim.Simulator, r *request) {
	r.hauled = true
	bytes := int64(r.restartCtx) * f.cfg.Model.KVBytesPerToken()
	dt := perf.P2PTime(f.cfg.Cluster.InterLink, bytes)
	now := s.Now()
	if f.haulFree < now {
		f.haulFree = now
	}
	f.haulFree += dt
	f.hauling++
	f.res.Migrations++
	f.res.MigratedBytes += bytes
	f.res.Trace.Add(trace.Event{At: now, Kind: trace.KindMigration, Request: r.wl.ID, Value: float64(bytes)})
	s.Schedule(f.haulFree, "kv-haul", func(s *sim.Simulator) { f.landHauled(s, r) })
}

// landHauled delivers a hauled request whose transfer completed: through
// the engine's landing function on the least-loaded survivor, or — with
// no replica serving — to the park, where its KV is lost.
func (f *replicaSet[R]) landHauled(s *sim.Simulator, r *request) {
	f.hauling--
	if f.land == nil {
		f.route(s, r)
		return
	}
	i := f.pick()
	if i < 0 {
		f.park(s, r)
		return
	}
	f.land(f.replicas[i], s, r)
}

// deactivate takes replica i out of service and re-dispatches everything
// it held, oldest first: resident requests haul their KV to survivors in
// haul mode, every other victim loses its KV and re-prefills, and the
// intake queue requeues in order — a hauled request that already landed
// there loses the KV it brought, which died with the replica.
func (f *replicaSet[R]) deactivate(s *sim.Simulator, i int, haul bool, to replicaState) {
	f.state[i] = to
	rt := f.replicas[i]
	victims, resident := rt.evacuate(s)
	sort.Slice(victims, func(a, b int) bool { return victims[a].seq < victims[b].seq })
	for _, r := range victims {
		if haul && resident[r.wl.ID] {
			f.evictForRecompute(s, r, false)
			f.haul(s, r)
			continue
		}
		f.evictForRecompute(s, r, true)
		f.route(s, r)
	}
	for q := rt.intake(); q.len() > 0; {
		r := q.pop()
		if r.hauled {
			f.loseVictim(s, r)
		}
		f.route(s, r)
	}
}

// activate brings replica i into service and hands it the parked backlog,
// then steals intake work from the fullest active replica until that donor
// holds at most one more than the newcomer, so the newcomer helps drain
// the backlog instead of waiting on fresh arrivals.
func (f *replicaSet[R]) activate(s *sim.Simulator, i int) {
	f.state[i] = replicaActive
	rt := f.replicas[i]
	q := rt.intake()
	for f.parked.len() > 0 {
		q.push(f.parked.pop())
	}
	for {
		var donor *waitQueue
		for j, o := range f.replicas {
			if j == i || f.state[j] != replicaActive {
				continue
			}
			if oq := o.intake(); donor == nil || oq.len() > donor.len() {
				donor = oq
			}
		}
		if donor == nil || donor.len() <= q.len()+1 {
			break
		}
		q.push(donor.pop())
	}
	rt.kick(s)
}

// activeCount implements chaosFleet.
func (f *replicaSet[R]) activeCount() int {
	n := 0
	for _, st := range f.state {
		if st == replicaActive {
			n++
		}
	}
	return n
}

// kill implements chaosFleet.
func (f *replicaSet[R]) kill(s *sim.Simulator, replica int, haul bool) {
	if replica < len(f.replicas) && f.state[replica] == replicaActive {
		f.deactivate(s, replica, haul, replicaFailed)
	}
}

// revive implements chaosFleet.
func (f *replicaSet[R]) revive(s *sim.Simulator, replica int) {
	if replica < len(f.replicas) && f.state[replica] == replicaFailed {
		f.activate(s, replica)
	}
}

// scaleUp implements chaosFleet: activate the first parked replica.
func (f *replicaSet[R]) scaleUp(s *sim.Simulator) bool {
	for i, st := range f.state {
		if st == replicaParked {
			f.activate(s, i)
			return true
		}
	}
	return false
}

// scaleDown implements chaosFleet: drain the highest-index active replica
// (its KV hauls to survivors — a graceful drain, not a crash).
func (f *replicaSet[R]) scaleDown(s *sim.Simulator) bool {
	if f.activeCount() <= 1 {
		return false
	}
	for i := len(f.state) - 1; i >= 0; i-- {
		if f.state[i] == replicaActive {
			f.deactivate(s, i, true, replicaParked)
			return true
		}
	}
	return false
}
