// The chaos layer: replica failure/recovery windows, an SLO-driven
// autoscaling controller, and priority tiers with admission control and
// preemption. The controller here owns the shared policy — when to fail
// whom, when the attainment window demands another replica, which tier a
// tenant belongs to — and drives it through the chaosFleet surface (kill /
// revive / scale). Its single implementation is replicaSet (fleet.go),
// which every engine runs on, so all four engines exercise identical chaos
// semantics from one copy of the mechanics.
//
// The layer is strictly additive: a nil (or inert) ChaosConfig leaves every
// engine on its exact legacy code path, which the differential no-op test
// and the pre-chaos golden traces both pin.

package engine

import (
	"fmt"
	"sort"

	"hetis/internal/metrics"
	"hetis/internal/sim"
	"hetis/internal/trace"
)

// FailureWindow takes one replica down for [Start, End) seconds of
// simulated time. In-flight requests on the replica are re-dispatched to
// survivors; HaulKV decides whether their KV cache moves with them (a
// serialized transfer over the cluster interconnect) or is lost (full
// re-prefill of the accumulated context).
type FailureWindow struct {
	Replica    int
	Start, End float64
	HaulKV     bool
}

// AutoscalePolicy is the SLO-driven replica controller: every Interval
// seconds it reads the most recent attainment window (a
// metrics.WindowedSeries bucketed at Interval against SLO) and scales up
// when attainment falls below UpBelow — after Lag seconds of provisioning
// delay — or drains a replica when attainment holds at or above DownAbove.
// One scale operation is in flight at a time.
type AutoscalePolicy struct {
	MinReplicas, MaxReplicas int
	Interval, Lag            float64
	UpBelow, DownAbove       float64
	SLO                      metrics.SLOTarget
}

// Tier is one priority class of a tiered workload. Tenants lists the
// workload tenants it covers (empty = catch-all). Higher Priority preempts
// lower under memory pressure. MaxInflight caps the tier's admitted,
// not-yet-finished requests: arrivals beyond the cap are dropped (admission
// control); 0 means uncapped.
type Tier struct {
	Name        string
	Tenants     []string
	Priority    int
	MaxInflight int
}

// ChaosConfig bundles the resilience knobs. Replicas is the initial fleet
// width (the engine's deployment is replicated that many times); 0 or 1
// means a single replica, the legacy shape.
type ChaosConfig struct {
	Failures  []FailureWindow
	Autoscale *AutoscalePolicy
	Tiers     []Tier
	Replicas  int
}

// tiersActive reports whether the tier list actually changes behaviour:
// more than one distinct priority (preemption order exists) or any
// admission cap.
func tiersActive(tiers []Tier) bool {
	if len(tiers) == 0 {
		return false
	}
	prio := tiers[0].Priority
	for _, t := range tiers {
		if t.MaxInflight > 0 || t.Priority != prio {
			return true
		}
	}
	return false
}

// normalize collapses an inert config to nil so engines take the exact
// legacy code path whenever chaos cannot change behaviour.
func (c *ChaosConfig) normalize() *ChaosConfig {
	if c == nil {
		return nil
	}
	if len(c.Failures) == 0 && c.Autoscale == nil && c.Replicas <= 1 && !tiersActive(c.Tiers) {
		return nil
	}
	return c
}

// Active reports whether the config can change behaviour at all — the
// exported face of normalize, for callers (the scenario layer) that must
// know whether a run is chaotic before building an engine.
func (c *ChaosConfig) Active() bool { return c.normalize() != nil }

// Validate reports chaos config errors.
func (c *ChaosConfig) Validate() error {
	if c == nil {
		return nil
	}
	if c.Replicas < 0 {
		return fmt.Errorf("chaos: negative Replicas %d", c.Replicas)
	}
	for i, fw := range c.Failures {
		if fw.Replica < 0 {
			return fmt.Errorf("chaos: failure %d: negative replica %d", i, fw.Replica)
		}
		if fw.Start < 0 || fw.End <= fw.Start {
			return fmt.Errorf("chaos: failure %d: bad window [%g, %g)", i, fw.Start, fw.End)
		}
	}
	if a := c.Autoscale; a != nil {
		if a.MinReplicas < 1 || a.MaxReplicas < a.MinReplicas {
			return fmt.Errorf("chaos: autoscale bounds [%d, %d] invalid", a.MinReplicas, a.MaxReplicas)
		}
		if a.Interval <= 0 {
			return fmt.Errorf("chaos: autoscale Interval %g must be positive", a.Interval)
		}
		if a.Lag < 0 {
			return fmt.Errorf("chaos: negative autoscale Lag %g", a.Lag)
		}
		if a.UpBelow < 0 || a.DownAbove > 1 || a.UpBelow > a.DownAbove {
			return fmt.Errorf("chaos: autoscale thresholds UpBelow=%g DownAbove=%g must satisfy 0 <= UpBelow <= DownAbove <= 1", a.UpBelow, a.DownAbove)
		}
	}
	seen := map[string]bool{}
	// tierOf names the tier listing each tenant: a tenant in two tiers
	// would be scheduled under one and reported under the other.
	tierOf := map[string]string{}
	catchAll := 0
	for _, t := range c.Tiers {
		if t.Name == "" {
			return fmt.Errorf("chaos: tier with empty name")
		}
		if seen[t.Name] {
			return fmt.Errorf("chaos: duplicate tier %q", t.Name)
		}
		seen[t.Name] = true
		if t.MaxInflight < 0 {
			return fmt.Errorf("chaos: tier %q: negative MaxInflight", t.Name)
		}
		if len(t.Tenants) == 0 {
			catchAll++
		}
		for _, tenant := range t.Tenants {
			if prev, ok := tierOf[tenant]; ok && prev != t.Name {
				return fmt.Errorf("chaos: tenant %q is in tiers %q and %q", tenant, prev, t.Name)
			}
			tierOf[tenant] = t.Name
		}
	}
	if catchAll > 1 {
		return fmt.Errorf("chaos: %d catch-all tiers (at most one tier may omit Tenants)", catchAll)
	}
	return nil
}

// initialReplicas is the fleet width a run starts with: Replicas floored at
// 1, clamped into the autoscaler's bounds when one is configured.
func (c *ChaosConfig) initialReplicas() int {
	n := c.Replicas
	if n < 1 {
		n = 1
	}
	if a := c.Autoscale; a != nil {
		if n < a.MinReplicas {
			n = a.MinReplicas
		}
		if n > a.MaxReplicas {
			n = a.MaxReplicas
		}
	}
	return n
}

// maxReplicas is the fleet capacity a run must pre-provision: the largest
// width any policy can reach — initial width, the autoscaler ceiling, and
// every failure window's replica index.
func (c *ChaosConfig) maxReplicas() int {
	n := c.initialReplicas()
	if a := c.Autoscale; a != nil && a.MaxReplicas > n {
		n = a.MaxReplicas
	}
	for _, fw := range c.Failures {
		if fw.Replica+1 > n {
			n = fw.Replica + 1
		}
	}
	return n
}

// chaosFleet is the surface an engine's replica fleet exposes to the
// controller. Replica indices are stable across kill/revive.
type chaosFleet interface {
	// activeCount is the number of replicas currently serving.
	activeCount() int
	// kill fails a replica: pending events cancelled, in-flight requests
	// re-dispatched to survivors (KV hauled or lost per haul), waiting
	// requests requeued. Killing an inactive replica is a no-op.
	kill(s *sim.Simulator, replica int, haul bool)
	// revive returns a failed replica to service (empty caches).
	revive(s *sim.Simulator, replica int)
	// scaleUp activates one parked replica; false when none is available.
	scaleUp(s *sim.Simulator) bool
	// scaleDown drains one active replica (its load re-dispatches); false
	// when the fleet is at one replica.
	scaleDown(s *sim.Simulator) bool
}

// tierState is one tier's runtime admission ledger.
type tierState struct {
	Tier
	inflight int
}

// chaosCtl drives the chaos policy for one run. It wraps the run's metrics
// sink (feeding the autoscale attainment window and closing recovery-time
// measurements), owns tier admission, and schedules failure and autoscale
// events. A nil *chaosCtl is the healthy fast path: every method degrades
// to the legacy no-op.
type chaosCtl struct {
	cfg   *ChaosConfig
	fleet chaosFleet
	res   *Result
	log   *trace.Log
	inner metrics.Sink

	byTenant  map[string]*tierState
	catchAll  *tierState
	multiTier bool

	win       *metrics.WindowedSeries
	scaleBusy bool

	// openFailures holds failure-start times awaiting their first
	// at-or-after completion — the recovery-time measure.
	openFailures []float64
}

// newChaosCtl builds the controller for a run. res and log are the run's
// result and trace (log may be nil); inner is the sink the run would
// otherwise feed — the controller interposes on it.
func newChaosCtl(cfg *ChaosConfig, res *Result, log *trace.Log, inner metrics.Sink) *chaosCtl {
	ctl := &chaosCtl{cfg: cfg, res: res, log: log, inner: inner}
	if len(cfg.Tiers) > 0 {
		ctl.byTenant = map[string]*tierState{}
		prio := cfg.Tiers[0].Priority
		for i := range cfg.Tiers {
			t := &tierState{Tier: cfg.Tiers[i]}
			if t.Priority != prio {
				ctl.multiTier = true
			}
			if len(t.Tenants) == 0 {
				ctl.catchAll = t
				continue
			}
			for _, tenant := range t.Tenants {
				ctl.byTenant[tenant] = t
			}
		}
	}
	return ctl
}

// bind attaches the engine's fleet (built after the controller, since the
// fleet wants the controller as its sink).
func (ctl *chaosCtl) bind(f chaosFleet) { ctl.fleet = f }

// start schedules the failure windows and the autoscale tick loop.
func (ctl *chaosCtl) start(s *sim.Simulator) {
	if ctl == nil {
		return
	}
	for i := range ctl.cfg.Failures {
		fw := ctl.cfg.Failures[i]
		s.Schedule(fw.Start, "chaos-fail", func(s *sim.Simulator) {
			ctl.openFailures = append(ctl.openFailures, fw.Start)
			ctl.log.Add(trace.Event{At: s.Now(), Kind: trace.KindFailure, Device: fw.Replica})
			ctl.fleet.kill(s, fw.Replica, fw.HaulKV)
		})
		s.Schedule(fw.End, "chaos-recover", func(s *sim.Simulator) {
			ctl.log.Add(trace.Event{At: s.Now(), Kind: trace.KindRecover, Device: fw.Replica})
			ctl.fleet.revive(s, fw.Replica)
		})
	}
	if a := ctl.cfg.Autoscale; a != nil {
		ctl.win = metrics.NewWindowedSeries(a.Interval, a.SLO)
		s.Schedule(a.Interval, "autoscale", ctl.tick)
	}
}

// tick is the autoscale cadence: decide, then reschedule while the run
// still has work pending (the same self-limiting pattern as the sampling
// timer, so an otherwise-drained simulation ends).
func (ctl *chaosCtl) tick(s *sim.Simulator) {
	ctl.decide(s)
	if s.Pending() > 0 {
		s.Schedule(s.Now()+ctl.cfg.Autoscale.Interval, "autoscale", ctl.tick)
	}
}

// decide reads the most recent attainment window and issues at most one
// scale operation.
func (ctl *chaosCtl) decide(s *sim.Simulator) {
	a := ctl.cfg.Autoscale
	st, ok := ctl.win.Open()
	if !ok || st.Completions+st.Dropped == 0 {
		return
	}
	att := st.Attainment()
	active := ctl.fleet.activeCount()
	switch {
	case att < a.UpBelow && active < a.MaxReplicas && !ctl.scaleBusy:
		// Scale up, but only after the provisioning lag: capacity is not
		// free the instant the controller wants it.
		ctl.scaleBusy = true
		s.Schedule(s.Now()+a.Lag, "scale-up", func(s *sim.Simulator) {
			ctl.scaleBusy = false
			if ctl.fleet.activeCount() < a.MaxReplicas && ctl.fleet.scaleUp(s) {
				ctl.res.ScaleUps++
				ctl.log.Add(trace.Event{At: s.Now(), Kind: trace.KindScale, Value: +1})
			}
		})
	case att >= a.DownAbove && active > a.MinReplicas && !ctl.scaleBusy:
		if ctl.fleet.scaleDown(s) {
			ctl.res.ScaleDowns++
			ctl.log.Add(trace.Event{At: s.Now(), Kind: trace.KindScale, Value: -1})
		}
	}
}

// tierFor maps a tenant to its tier (catch-all or nil).
func (ctl *chaosCtl) tierFor(tenant string) *tierState {
	if ctl == nil {
		return nil
	}
	if t, ok := ctl.byTenant[tenant]; ok {
		return t
	}
	return ctl.catchAll
}

// admit runs tier admission control on an arriving request, stamping its
// priority and taking an inflight slot. A false return means the request
// was dropped (recorded, counted, traced); the caller must not enqueue it.
// Nil-safe: the healthy path admits everything.
func (ctl *chaosCtl) admit(s *sim.Simulator, r *request) bool {
	if ctl == nil {
		return true
	}
	t := ctl.tierFor(r.wl.Tenant)
	if t == nil {
		return true
	}
	r.prio = t.Priority
	if t.MaxInflight > 0 && t.inflight >= t.MaxInflight {
		ctl.drop(s, r)
		return false
	}
	t.inflight++
	return true
}

// release returns an admitted request's tier slot; engines call it when
// the request finishes or is dropped after admission.
func (ctl *chaosCtl) release(r *request) {
	if ctl == nil {
		return
	}
	if t := ctl.tierFor(r.wl.Tenant); t != nil && t.inflight > 0 {
		t.inflight--
	}
}

// drop records an admission-control rejection.
func (ctl *chaosCtl) drop(s *sim.Simulator, r *request) {
	ctl.res.Dropped++
	recordDrop(ctl, r, s.Now())
	ctl.log.Add(trace.Event{At: s.Now(), Kind: trace.KindDrop, Request: r.wl.ID, Note: r.wl.Tenant})
}

// notePreempt counts one priority preemption: victim was evicted mid-flight
// so a strictly-higher-priority request could take its memory. The victim
// requeues (it is not dropped); the cost is latency.
func (ctl *chaosCtl) notePreempt(s *sim.Simulator, victim *request) {
	if ctl == nil {
		return
	}
	ctl.res.Preempted++
	if ctl.res.PreemptedByTenant == nil {
		ctl.res.PreemptedByTenant = map[string]int{}
	}
	ctl.res.PreemptedByTenant[victim.wl.Tenant]++
	ctl.log.Add(trace.Event{At: s.Now(), Kind: trace.KindPreempt, Request: victim.wl.ID, Note: victim.wl.Tenant})
}

// tiered reports whether multi-priority scheduling is active — the switch
// for priority waiting queues and tier-aware victim selection.
func (ctl *chaosCtl) tiered() bool { return ctl != nil && ctl.multiTier }

// Observe implements metrics.Sink: the controller interposes on the run's
// sink to feed the autoscale attainment window and close open recovery
// measurements (first completion at or after each failure start).
func (ctl *chaosCtl) Observe(r metrics.RequestRecord) {
	if ctl.win != nil {
		ctl.win.Observe(r)
	}
	if !r.Dropped && len(ctl.openFailures) > 0 {
		kept := ctl.openFailures[:0]
		for _, start := range ctl.openFailures {
			if r.FinishedAt >= start {
				ctl.res.RecoveryTimes = append(ctl.res.RecoveryTimes, r.FinishedAt-start)
			} else {
				kept = append(kept, start)
			}
		}
		ctl.openFailures = kept
	}
	ctl.inner.Observe(r)
}

// Snapshot implements metrics.Sink via the wrapped sink.
func (ctl *chaosCtl) Snapshot() metrics.Snapshot { return ctl.inner.Snapshot() }

// waitQueue is the engines' waiting line: a plain FIFO normally, and a
// strict-priority set of FIFOs (highest priority first) under multi-tier
// chaos. The plain path delegates to queue untouched, so non-tiered runs
// keep their exact legacy ordering.
type waitQueue struct {
	plain  queue
	tiered bool
	byPrio map[int]*queue
	prios  []int // sorted descending
	n      int
}

func newWaitQueue(tiered bool) *waitQueue {
	w := &waitQueue{tiered: tiered}
	if tiered {
		w.byPrio = map[int]*queue{}
	}
	return w
}

func (w *waitQueue) bucket(p int) *queue {
	q, ok := w.byPrio[p]
	if !ok {
		q = &queue{}
		w.byPrio[p] = q
		w.prios = append(w.prios, p)
		sort.Sort(sort.Reverse(sort.IntSlice(w.prios)))
	}
	return q
}

func (w *waitQueue) push(r *request) {
	if !w.tiered {
		w.plain.push(r)
		return
	}
	w.bucket(r.prio).push(r)
	w.n++
}

func (w *waitQueue) pushFront(r *request) {
	if !w.tiered {
		w.plain.pushFront(r)
		return
	}
	w.bucket(r.prio).pushFront(r)
	w.n++
}

func (w *waitQueue) len() int {
	if !w.tiered {
		return w.plain.len()
	}
	return w.n
}

func (w *waitQueue) peek() *request {
	if !w.tiered {
		return w.plain.peek()
	}
	for _, p := range w.prios {
		if q := w.byPrio[p]; q.len() > 0 {
			return q.peek()
		}
	}
	return nil
}

func (w *waitQueue) pop() *request {
	if !w.tiered {
		return w.plain.pop()
	}
	for _, p := range w.prios {
		if q := w.byPrio[p]; q.len() > 0 {
			w.n--
			return q.pop()
		}
	}
	return nil
}
