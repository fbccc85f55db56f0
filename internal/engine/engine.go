// Package engine contains the iteration-level serving simulators: the Hetis
// engine (primary workers + pooled attention workers with dynamic head-wise
// dispatch) and the two baselines of §7 — Splitwise (prefill/decode
// disaggregation) and HexGen (static asymmetric parallelism). All engines
// run on the discrete-event kernel with costs from the perf model, share
// the continuous-batching loop structure, and produce the same Result so
// experiments can compare them row by row.
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// Config carries the knobs shared by all engines.
type Config struct {
	Model   model.Config
	Cluster *hardware.Cluster

	// Theta is Hetis' re-dispatching threshold (§5.3); default 0.5.
	Theta float64
	// DisableRedispatch turns §5.3 off: memory exhaustion falls back to a
	// plain (device-oblivious) LIFO eviction — the Fig. 15(a) baseline.
	DisableRedispatch bool
	// BlockingMigration charges cache-migration time to the iteration
	// instead of overlapping it on low-priority streams (ablation).
	BlockingMigration bool
	// GreedyDispatch replaces the Eq. 7 LP with the greedy
	// longest-processing-time heuristic (ablation).
	GreedyDispatch bool
	// perRequestSteps makes every Hetis decode step take the per-request
	// loop instead of the batched advance. Only tests set it, to run the
	// twin the batched step must match byte for byte.
	perRequestSteps bool
	// checkStep, when set, runs on every batched Hetis decode step after
	// the batch's finishers left and before the advance, with the requests
	// about to advance. Only tests set it.
	checkStep func(inst *hetisInstance, advancing []*request)
	// poisonRetired makes every run poison its completed requests instead
	// of recycling them (see requestPool). Only tests set it, to check that
	// nothing reads a request after it retires.
	poisonRetired bool

	// SampleEvery is the trace-sampling period in seconds (0 disables).
	SampleEvery float64

	// Sink receives every finished request's metrics.RequestRecord as the
	// run emits it. Nil (the default) stores records exactly in a fresh
	// metrics.Recorder per run — the behaviour golden traces pin. Injecting
	// a streaming sink (metrics.StreamingSink, WindowedSeries, KeyedMux,
	// or a Tee of them) bounds measurement memory for million-request
	// traces. A non-nil Sink is per-run state: reuse across runs
	// accumulates.
	Sink metrics.Sink
	// NoTrace drops the run's per-event and per-iteration records: the
	// structured trace log (Result.Trace is nil; trace.Log is nil-safe),
	// the §7.3 module series (DenseTimes and AttnTimes stay empty) and
	// Hetis's per-device samples (HeadSeries and CacheSeries stay nil).
	// The run then holds no memory that grows with its length beyond what
	// its sink keeps. The simulation itself, event count included, does
	// not change. Large-scale streaming runs want this on.
	NoTrace bool

	// Chaos configures the resilience layer: replica failure windows,
	// SLO-driven autoscaling, and priority tiers with admission control and
	// preemption. Nil — or a config whose normalize() reports it inert —
	// leaves the engines on the exact legacy code path, so healthy runs stay
	// byte-identical to their pre-chaos golden traces.
	Chaos *ChaosConfig
}

// Continuous-batching limits shared by every engine.
const (
	// maxPrefillTokens bounds the tokens prefilled per iteration.
	maxPrefillTokens = 8192
	// maxPrefillRequests bounds the prompts admitted per iteration.
	maxPrefillRequests = 8
	// maxRunning bounds the decode batch per instance.
	maxRunning = 512
	// admitWatermark is the Hetis engine's cache-utilization ceiling for
	// admitting new (or recycled) requests: admission stops when the
	// projected utilization exceeds it, leaving slack for running requests
	// to grow. This is the hysteresis that keeps eviction storms from
	// livelocking the batch under overload (vLLM's watermark, made
	// explicit).
	admitWatermark = 0.92
	// rebalanceEvery is the number of Hetis decode iterations between
	// §5.3.1 imbalance checks (each check may solve the ideal relaxation).
	rebalanceEvery = 8
)

// DefaultConfig returns the standard engine configuration for a model on a
// cluster.
func DefaultConfig(cfg model.Config, cluster *hardware.Cluster) Config {
	return Config{
		Model:       cfg,
		Cluster:     cluster,
		Theta:       0.5,
		SampleEvery: 1.0,
	}
}

// maxEventsPerRequest is the per-request event budget of the simulator's
// runaway guard. A request's worst case — solo decode of a full context
// window plus repeated eviction/re-prefill cycles — stays well under it,
// while a genuine scheduling livelock (events that never advance a
// request) still trips the guard quickly.
const maxEventsPerRequest = 65536

// minEventBudget floors the runaway guard so tiny traces keep slack for
// per-second sampling timers and rebalance cadence events.
const minEventBudget = 1_000_000

// MaxSimEvents is the runaway-guard event budget for a trace of n
// requests: n×maxEventsPerRequest, floored at minEventBudget (so tiny
// traces keep slack for sampling timers and rebalance checks). Scaling with
// the trace keeps the guard meaningful for small runs without tripping on
// million-request traces (the old fixed 20M literal did).
//
// Chaos multiplies legitimate work per request — every replica runs its
// own loop timers, each failure window re-dispatches (and possibly
// re-prefills) a replica's whole population, autoscaling adds a tick loop
// plus drain/activate churn, and tier preemption requeues victims — so a
// chaotic run scales the budget by the fleet width and the configured
// chaos event classes. A genuine livelock still trips the guard: the
// multiplier is a constant for a given config, while a livelock generates
// events without bound.
func (c Config) MaxSimEvents(n int) uint64 { return c.eventBudget(n, maxEventsPerRequest) }

// eventBudget is MaxSimEvents at per events per request.
func (c Config) eventBudget(n, per int) uint64 {
	budget := uint64(per) * uint64(n)
	if chaos := c.Chaos.normalize(); chaos != nil {
		mult := uint64(chaos.maxReplicas())
		// Each failure window can force a full re-dispatch/re-prefill pass;
		// autoscaling and tiering each add their own event class.
		mult += uint64(len(chaos.Failures))
		if chaos.Autoscale != nil {
			mult++
		}
		if tiersActive(chaos.Tiers) {
			mult++
		}
		budget *= mult
	}
	if budget < minEventBudget {
		budget = minEventBudget
	}
	return budget
}

// Validate reports config errors.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Cluster == nil || c.Cluster.NumDevices() == 0 {
		return fmt.Errorf("engine: empty cluster")
	}
	if c.Theta < 0 {
		return fmt.Errorf("engine: negative Theta %g", c.Theta)
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	return nil
}

// Result is what an engine run produces.
type Result struct {
	Engine string
	// Sink is the measurement sink the run fed — the injected Config.Sink,
	// or the run's own exact recorder by default. Always non-nil.
	Sink metrics.Sink
	// Recorder is the exact record store when the run measured exactly
	// (the default); nil when a custom streaming sink was injected. Exact
	// consumers (golden tables, paper experiments) read it; sink-aware
	// consumers use Sink.Snapshot().
	Recorder *metrics.Recorder
	// Trace is the structured event log (nil with Config.NoTrace).
	Trace *trace.Log

	// CacheCapacity is the KV space the deployment can hold (Fig. 11).
	CacheCapacity int64
	// PeakCacheUsed is the maximum observed total cache allocation.
	PeakCacheUsed int64

	// DenseTimes and AttnTimes are per-decode-iteration module latencies
	// (max across stages × stage count, as §7.3 defines), for Fig. 13.
	// Both stay empty with Config.NoTrace.
	DenseTimes, AttnTimes ModuleSeries

	// HeadSeries and CacheSeries sample per-device head counts and cache
	// utilization over time (Fig. 14), keyed by device ID. Only the Hetis
	// engine fills them, every Config.SampleEvery simulated seconds; both
	// are nil with Config.NoTrace.
	HeadSeries  map[hardware.DeviceID]*metrics.Series
	CacheSeries map[hardware.DeviceID]*metrics.Series

	Completed int
	Evictions int
	// Migrations counts §5.3 re-dispatch cache moves; MigratedBytes their
	// volume.
	Migrations    int
	MigratedBytes int64

	// Dropped counts requests the run refused or shed (admission control,
	// unservable size, no capacity after preemption); each also produced a
	// Dropped RequestRecord on the sink. Queued counts requests still in
	// the system when the run ended (admitted, neither completed nor
	// dropped) — nonzero only when the horizon cut the run short. Together
	// they close the conservation ledger:
	// offered == Completed + Dropped + Queued.
	Dropped int
	Queued  int
	// Preempted counts priority preemptions: lower-tier victims evicted
	// mid-flight to admit higher-tier work. Victims are requeued, not
	// dropped — a preemption costs latency. PreemptedByTenant attributes
	// the victims (nil when no preemption happened).
	Preempted         int
	PreemptedByTenant map[string]int
	// RecoveryTimes holds, per failure window, the time from the failure
	// instant to the first completion at or after it — a
	// service-restoration measure that is ~0 when surviving replicas mask
	// the failure. ScaleUps/ScaleDowns count autoscaler decisions.
	RecoveryTimes        []float64
	ScaleUps, ScaleDowns int
	// Horizon is the simulated time at which the run ended.
	Horizon float64

	// Events is the number of discrete events the run executed — the
	// denominator-free measure of simulation work that the benchmark
	// (benchmark/) divides by wall-clock for events/sec.
	Events uint64
	// LPSolves counts placement LP solves across the run's dispatchers;
	// LPSolvesAvoided counts §5.3.1 relaxations skipped by the lower-bound
	// test. Both are zero for engines without dynamic dispatch.
	LPSolves, LPSolvesAvoided int
	// LPWarmStarts is always zero: the dispatcher no longer warm-starts
	// any solve. The field stays because the benchmark still reads it.
	LPWarmStarts int
	// LPSolveSeconds is wall-clock spent posing and solving placement
	// LPs, the numerator of the benchmark's "LP share of engine
	// time".
	LPSolveSeconds float64
	// DecodeSteps counts Hetis decode iterations, and PerRequestSteps the
	// ones that walked the batch request by request instead of taking the
	// batched advance (see hetisInstance.afterDecode). Both are zero for
	// the other engines.
	DecodeSteps, PerRequestSteps int
}

// seriesPage is the length of one ModuleSeries page: 4096 float64s are
// 32 KiB, the largest size class the small-object allocator serves.
const seriesPage = 4096

// ModuleSeries is an append-only series of per-iteration module latencies
// kept in fixed pages: a run reserves nothing up front, and growing the
// series never copies what it holds. Values flattens it for readers that
// need one slice.
type ModuleSeries struct {
	pages []*[seriesPage]float64
	n     int
}

// Append adds one iteration's latency.
func (m *ModuleSeries) Append(v float64) {
	if m.n%seriesPage == 0 {
		m.pages = append(m.pages, new([seriesPage]float64))
	}
	m.pages[m.n/seriesPage][m.n%seriesPage] = v
	m.n++
}

// Len is the number of latencies held.
func (m *ModuleSeries) Len() int { return m.n }

// Values returns the latencies in append order, in a fresh slice (nil
// when empty).
func (m *ModuleSeries) Values() []float64 {
	if m.n == 0 {
		return nil
	}
	out := make([]float64, 0, m.n)
	for _, p := range m.pages {
		out = append(out, p[:min(seriesPage, m.n-len(out))]...)
	}
	return out
}

// Throughput is completed requests per simulated second.
func (r *Result) Throughput() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Horizon
}

// Engine is a runnable serving system simulation.
type Engine interface {
	// Name identifies the system ("hetis", "splitwise", "hexgen").
	Name() string
	// Run serves the trace until all requests finish or the horizon
	// (seconds; <= 0 means unbounded) passes.
	Run(reqs []workload.Request, horizon float64) (*Result, error)
	// CacheCapacity reports the KV space of the deployment without
	// running it.
	CacheCapacity() int64
}

// request is the runtime state of one in-flight request. A run takes it
// from its requestPool when the request arrives and hands it back when the
// request completes; the pool zeroes it and serves it to a later arrival,
// so no *request may be read after the flush that retires it (see
// requestPool for the holders that outlive a completion).
type request struct {
	wl workload.Request
	// generated is the number of tokens produced so far — except while
	// the request is in a static engine's running batch, where it is held
	// relative to the tokenPool's step clock (see tokenPool).
	generated int
	firstTok  float64
	evicted   bool
	// hauled marks a request whose KV cache survived a replica failure by
	// being hauled to a survivor: its next "prefill" only re-establishes
	// attention state (one token of prefill work) while cache accounting
	// still charges the full hauled context. It sits beside evicted so the
	// two flags share one word.
	hauled bool
	// slot is the request's index in a tokenPool's running batch, kept in
	// the word the two flags above leave free.
	slot int32
	// restartCtx is the context length to re-prefill after an eviction.
	restartCtx int
	// prio is the request's tier priority under chaos (higher preempts
	// lower); 0 outside tiered runs.
	prio int
	// seq is the global admission order (fleetCore.admitArrival assigns
	// it), the key of every "newest first" victim choice. It replaced the
	// fleet-level map[int64]int64 so the selection loops read a field
	// instead of hashing.
	seq int64
	// hx caches the Hetis engine's handles to the request's dispatcher
	// record and KV entries (nil on the other engines, and until the first
	// decode token).
	hx *hetisHandles
}

func (r *request) contextLen() int { return r.wl.PromptLen + r.generated }

// prefillLen is the prompt length the next prefill must process: the
// restart context normally, but a single token for a hauled request whose
// KV already moved with it.
func (r *request) prefillLen() int {
	if r.hauled {
		return 1
	}
	return r.restartCtx
}

func (r *request) done() bool { return r.generated >= r.wl.OutputLen }

// queue is a deque of requests on a power-of-two ring: push, pushFront,
// and pop are all O(1) amortized. pushFront is the requeue path eviction
// and preemption storms hammer (a victim goes back to the head so it
// keeps its place in line); the previous slice-backed version paid a
// full copy whenever the head was already at slot 0. Popped slots are
// nil'd immediately so a served request never stays pinned behind the
// ring's lifetime.
type queue struct {
	ring []*request // empty or power-of-two length
	head int        // index of the front element
	n    int        // live element count
}

func (q *queue) grow() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]*request, size)
	mask := len(q.ring) - 1
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&mask]
	}
	q.ring = ring
	q.head = 0
}

func (q *queue) push(r *request) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = r
	q.n++
}

func (q *queue) pushFront(r *request) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.ring) - 1)
	q.ring[q.head] = r
	q.n++
}

func (q *queue) len() int { return q.n }

func (q *queue) peek() *request {
	if q.n == 0 {
		return nil
	}
	return q.ring[q.head]
}

func (q *queue) pop() *request {
	if q.n == 0 {
		return nil
	}
	r := q.ring[q.head]
	q.ring[q.head] = nil // release: served requests must be collectable
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return r
}

// requestPool recycles request state within one run. A request retires at
// one point only, its completion: fleetCore.finishDeferred files it in
// retired, and fleetCore.flushFinishes, once the batch's records are out,
// zeroes it (dropping its tenant string and handle set) and moves it to
// free, where the next arrival picks it up. A run therefore allocates
// request state for its peak concurrency, not for every arrival. Drops
// (admission control, unservable sizes) leave recycling to the GC: they
// are rare, and one retirement point keeps the audit small.
//
// Recycling is safe because nothing dereferences a request after the
// flush that retires it. The holders that outlive a completion are:
//   - hetisInstance.fresh omits the requests that finished at their
//     prefill, so evict's membership test cannot match a recycled struct;
//   - the byID identity checks in prefillDone and afterDecode compare
//     requests admitted or running in the same callback, before its flush;
//   - the idle admitBufs slots and a static runtime's prefillBatch tail
//     keep stale pointers that are cleared or overwritten, never read;
//   - tokenPool.finishAt files a request in one bucket, which afterDecode
//     clears before the flush, and remove splices out of;
//   - chaos park, intake and haul closures hold only requests in the
//     system, and a request finishes only off a replica's batch.
//
// poison, set by Config.poisonRetired, fills retired requests with values
// no live request holds and never reuses them, so a run that reads one
// after its flush diverges from the recycling run.
type requestPool struct {
	retired []*request
	free    []*request
	poison  bool
}

// get returns a zeroed request: a recycled one when the free list has one.
func (p *requestPool) get() *request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return new(request)
}

// recycle zeroes (or poisons) every retired request and frees it.
func (p *requestPool) recycle() {
	for _, r := range p.retired {
		if p.poison {
			poisonRequest(r)
			continue
		}
		*r = request{}
		p.free = append(p.free, r)
	}
	clear(p.retired)
	p.retired = p.retired[:0]
}

// poisonRequest overwrites a retired request with values no live request
// holds: a negative ID, NaN times, lengths past any context window, the
// newest sequence number and the lowest priority, so any later read shows
// up in the records, the trace or the victim choice.
func poisonRequest(r *request) {
	const huge = 1 << 40
	*r = request{
		wl: workload.Request{
			ID:        -1 << 40,
			ArrivalAt: math.NaN(),
			PromptLen: huge,
			OutputLen: huge,
			Tenant:    "retired",
		},
		generated:  huge,
		firstTok:   math.NaN(),
		slot:       -1,
		restartCtx: huge,
		prio:       math.MinInt,
		seq:        math.MaxInt64,
	}
}

// scheduleArrivals feeds the trace into the engines' admission path. The
// trace is read, never written: each request is clamped to the context
// window (workload.Clamp with maxSeq) as its state is taken from pool,
// before anything reads its lengths, so no run copies a sorted trace. It
// refuses a trace with a request whose arrival time is negative or not
// finite, or whose prompt or output length is negative, naming the first
// such request; the check rides the sortedness scan, so it costs no pass.
//
// Request state comes from the run's requestPool as arrivals fire, so a
// run holds state for the requests in flight, not for the whole trace.
//
// Arrivals feed lazily: instead of pushing all n arrival events into the
// queue up front, each arrival schedules the next, so at most one arrival
// is pending at a time. Sequence numbers for all n arrivals are reserved
// up front as one block, so arrivals order by (At, trace index) among
// themselves and by At and the block's position against every other
// event — the order an eager up-front loop would produce. A trace not
// sorted by arrival time feeds a stably sorted clone, which keeps that
// order: equal arrival times stay in trace order.
func scheduleArrivals(s *sim.Simulator, reqs []workload.Request, maxSeq int, pool *requestPool, admit func(s *sim.Simulator, r *request)) error {
	n := len(reqs)
	if n == 0 {
		return nil
	}
	sorted := true
	for i := range reqs {
		r := &reqs[i]
		if !(r.ArrivalAt >= 0) || math.IsInf(r.ArrivalAt, 1) || r.PromptLen < 0 || r.OutputLen < 0 {
			return fmt.Errorf("engine: trace request %d (ID %d): arrival %g, prompt %d, output %d: want a finite, non-negative arrival time and non-negative lengths",
				i, r.ID, r.ArrivalAt, r.PromptLen, r.OutputLen)
		}
		if i > 0 && r.ArrivalAt < reqs[i-1].ArrivalAt {
			sorted = false
		}
	}
	if !sorted {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, func(a, b workload.Request) int { return cmp.Compare(a.ArrivalAt, b.ArrivalAt) })
	}
	alloc := func(i int) *request {
		// The state is zeroed, so setting the two non-zero fields in place
		// initialises it without copying a whole request.
		r := pool.get()
		r.wl = workload.Clamp(reqs[i], maxSeq)
		r.restartCtx = r.wl.PromptLen
		return r
	}
	first := s.ReserveSeq(n)
	f := &arrivalFeeder{reqs: reqs, first: first, admit: admit, alloc: alloc}
	f.fn = f.fire
	s.ScheduleSeq(first, reqs[0].ArrivalAt, "arrival", f.fn)
	return nil
}

// arrivalFeeder is the lazy arrival feed as a value: one cached
// callback fires every arrival instead of a fresh closure per request
// (a megascale trace paid one heap allocation per arrival for those).
// next advances monotonically because exactly one arrival is pending at a
// time, and fire schedules the successor before admitting — the identical
// order the closure chain produced.
type arrivalFeeder struct {
	reqs  []workload.Request
	first uint64
	next  int
	admit func(*sim.Simulator, *request)
	alloc func(int) *request
	fn    func(*sim.Simulator)
}

func (f *arrivalFeeder) fire(s *sim.Simulator) {
	i := f.next
	f.next++
	if i+1 < len(f.reqs) {
		s.ScheduleSeq(f.first+uint64(i+1), f.reqs[i+1].ArrivalAt, "arrival", f.fn)
	}
	f.admit(s, f.alloc(i))
}

// newRunSink resolves a run's measurement sink: the injected Config.Sink,
// or a fresh exact recorder pre-sized for the run's request count (every
// request surfaces at most once — as a completion or a drop — so expected
// bounds the record count and the recorder fills one contiguous slab).
// The second return is the recorder view when the sink stores records
// exactly (nil otherwise) — what Result.Recorder carries for exact
// consumers.
func (c Config) newRunSink(expected int) (metrics.Sink, *metrics.Recorder) {
	if c.Sink != nil {
		rec, _ := c.Sink.(*metrics.Recorder)
		return c.Sink, rec
	}
	rec := metrics.NewRecorderCap(expected)
	return rec, rec
}

// newTraceLog resolves a run's event log: nil under NoTrace (trace.Log
// methods are nil-safe no-ops, so engines trace unconditionally).
func (c Config) newTraceLog() *trace.Log {
	if c.NoTrace {
		return nil
	}
	return &trace.Log{}
}

// finishRecord builds the completion record recordFinish and the batched
// finish path share.
func finishRecord(r *request, now float64) metrics.RequestRecord {
	return metrics.RequestRecord{
		ID:         r.wl.ID,
		ArrivalAt:  r.wl.ArrivalAt,
		FirstToken: r.firstTok,
		FinishedAt: now,
		PromptLen:  r.wl.PromptLen,
		OutputLen:  r.wl.OutputLen,
		Tenant:     r.wl.Tenant,
		Evicted:    r.evicted,
	}
}

// recordDrop surfaces a request the run gave up on as a Dropped record:
// it stays in the attainment denominator (see metrics.RequestRecord) but
// contributes no latency samples.
func recordDrop(sink metrics.Sink, r *request, now float64) {
	sink.Observe(metrics.RequestRecord{
		ID:         r.wl.ID,
		ArrivalAt:  r.wl.ArrivalAt,
		FinishedAt: now,
		PromptLen:  r.wl.PromptLen,
		OutputLen:  r.wl.OutputLen,
		Tenant:     r.wl.Tenant,
		Evicted:    r.evicted,
		Dropped:    true,
	})
}

// moduleLatency implements §7.3's metric: the maximum per-stage execution
// time multiplied by the number of stages, reflecting pipeline bubbles.
func moduleLatency(perStage []float64) float64 {
	if len(perStage) == 0 {
		return 0
	}
	max := perStage[0]
	for _, v := range perStage[1:] {
		if v > max {
			max = v
		}
	}
	return max * float64(len(perStage))
}
