// The one scenario run path: a run splits its trace into shards — the
// whole trace for an unsharded spec, a front-door router's partition for a
// sharded one — serves each shard on an independent engine (own event
// queue, trace arena, and sink), executes the shards concurrently on the
// sweep worker pool, and merges everything back in shard-index order.
// Every decision that could differ between executions is made before the
// shards start or after they all finish, so the merged output is
// byte-identical at any shard-worker count and any GOMAXPROCS.

package scenario

import (
	"errors"
	"fmt"
	"time"

	"hetis/internal/engine"
	"hetis/internal/fleet"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/sweep/pool"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// fleetShard is one replica's slice of a run.
type fleetShard struct {
	reqs     []workload.Request
	eng      engine.Engine   // nil when the router sent the shard nothing
	pipeline *streamPipeline // streaming runs only; built for every shard
	res      *engine.Result
	err      error
}

// FleetRun is a prepared run: trace generated, split into shards, and one
// engine built per non-empty shard — everything except the simulation
// itself, so harnesses that time serving (benchmark/) can keep
// preparation outside the clock. A FleetRun is single-use: streaming sinks
// accumulate, so call PrepareFleet again for a repeat run.
type FleetRun struct {
	Spec       Spec // the effective (defaulted, quick-scaled) spec; zero for a Job
	EngineName string

	// offered is the trace's request count and offeredBy its per-tenant
	// split: all the row writer needs of the trace, which the shards hold
	// and which is dropped once they have run.
	offered   int
	offeredBy map[string]int
	horizon   float64 // the measurement horizon every shard runs to
	shards    []*fleetShard
	pipeline  *streamPipeline // shard 0's, which the others merge onto
	tenants   bool            // the trace is multi-tenant
	chaotic   bool
	streaming bool
	ran       bool
	merged    *engine.Result
	timings   FleetTimings
}

// FleetTimings is a run's wall-clock breakdown by phase. It is
// self-profiling for harnesses: no table or output reads it, so it never
// changes what a run prints.
type FleetTimings struct {
	// FrontDoor is the seconds PrepareFleet spent synthesizing the trace,
	// routing it into shards and counting its tenants (zero for a Job).
	FrontDoor float64
	// ShardBusy is the seconds each shard's engine ran, sink drain
	// included, by shard index; a shard the router starved reads 0.
	ShardBusy []float64
	// Merge is the seconds spent folding the shard results into one.
	Merge float64
}

// PrepareFleet prepares a scenario for engineName: applies defaults and
// Quick scaling, validates, generates the trace split into shards
// (Spec.Shards), and builds each non-empty shard's engine through
// opts.Build. An unsharded spec is one shard that holds the whole trace
// and carries the spec's chaos config; a sharded spec's trace is routed
// into its shards as it is synthesized, and every shard plans its own
// sub-trace. A window the windowed series cannot bucket (checkWindow), or
// any window without Stream (only the streaming sinks collect the
// series), is refused before any of that. An unsharded streaming run
// feeds its sinks through a metrics.Pipe (Options.piped has the rule). It
// is the spec case of Job: the same build and Run code, with the spec's
// trace, shards, chaos and sinks.
func PrepareFleet(spec Spec, engineName string, opts Options) (*FleetRun, error) {
	spec = Prepare(spec, opts.Quick)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindow(opts.Window, spec.Duration); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	if opts.Window > 0 && !opts.Stream {
		return nil, fmt.Errorf("scenario %s: window %g s needs Stream (the windowed series is a streaming-sink product)", spec.Name, opts.Window)
	}
	if !engine.Known(engineName) {
		return nil, fmt.Errorf("scenario %s: unknown engine %q", spec.Name, engineName)
	}
	//hetis:entropy wall-clock self-profiling; FleetTimings is reporting-only and never reaches a table
	start := time.Now()
	parts, offeredBy, err := spec.shards()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	frontDoor := time.Since(start).Seconds()
	offered := 0
	for _, part := range parts {
		offered += len(part)
	}
	if offered == 0 {
		return nil, fmt.Errorf("scenario %s: empty trace", spec.Name)
	}
	m, err := model.ByName(spec.Model)
	if err != nil {
		return nil, err
	}
	cluster, err := ClusterByName(spec.Cluster)
	if err != nil {
		return nil, err
	}
	chaos := spec.chaosConfig()
	f := &FleetRun{
		Spec:       spec,
		EngineName: engineName,
		offered:    offered,
		offeredBy:  offeredBy,
		tenants:    multiTenant(offeredBy),
		chaotic:    chaos.Active(),
		streaming:  opts.Stream,
		timings:    FleetTimings{FrontDoor: frontDoor},
	}
	var tierKey func(metrics.RequestRecord) string
	if f.tiered() {
		tierKey = func(r metrics.RequestRecord) string { return spec.tierOf(r.Tenant) }
	}
	piped := opts.Stream && opts.piped(spec.Sharded())
	job := Job{Model: m, Cluster: cluster, Engine: engineName, Horizon: MeasurementHorizon(spec.Duration), Build: opts.Build}
	err = f.build(job, parts, func(cfg *engine.Config, sh *fleetShard) {
		cfg.Chaos = chaos
		if opts.Stream {
			// Every shard gets the pipeline shape of the whole trace (a
			// shard that happens to see one tenant of several still builds
			// the tenant mux), so the shard sinks merge structurally.
			sh.pipeline = newStreamPipeline(spec.SLO, opts.Window, offeredBy, tierKey)
			cfg.Sink = sh.pipeline.sink
			if piped {
				sh.pipeline.pipe = metrics.NewPipe(sh.pipeline.sink)
				cfg.Sink = sh.pipeline.pipe
			}
			cfg.NoTrace = true
		}
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Shards generates the scenario's trace split into the sub-traces its
// shards serve: the whole trace (Trace) as one shard for an unsharded
// spec, the front-door router's split for a sharded one, in which each
// shard keeps arrival order and a shard that receives nothing is nil.
// Deterministic in (spec, Seed).
func (s Spec) Shards() ([][]workload.Request, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	parts, _, err := s.shards()
	return parts, err
}

// shards is Shards for a defaulted, validated spec, with the trace's
// per-tenant request counts. A sharded spec's trace never exists whole:
// each chunk SynthesizeChunks draws is routed request by request (one
// Router.Assign each) into its shard's own window of one array, sized
// by the shard's expected share of the count (Router.Shares), and counted
// by tenant in the same pass, and its buffer is recycled for a later
// chunk.
func (s Spec) shards() ([][]workload.Request, map[string]int, error) {
	offered := map[string]int{}
	if !s.Sharded() {
		reqs := workload.Synthesize(s.arrivals(), s.expected(), s.Mix, s.Seed+1)
		countTenants(offered, reqs)
		return [][]workload.Request{reqs}, offered, nil
	}
	router, err := fleet.NewRouter(s.Fleet.policy(), s.Fleet.Shards, s.Fleet.Weights)
	if err != nil {
		return nil, nil, err
	}
	// One array backs every shard's pre-sized window, so the heap grows
	// once rather than once per shard; a shard that outgrows its window
	// moves out of it by append.
	caps := workload.PresizeShares(s.expected(), router.Shares(s.Mix))
	total := 0
	for _, n := range caps {
		total += n
	}
	backing := make([]workload.Request, total)
	parts := make([][]workload.Request, router.Shards())
	for i, n := range caps {
		parts[i], backing = backing[:0:n], backing[n:]
	}
	workload.SynthesizeChunks(s.arrivals(), s.Mix, s.Seed+1, func(filled []workload.Request) []workload.Request {
		for i := range filled {
			sh := router.Assign(&filled[i])
			parts[sh] = append(parts[sh], filled[i])
		}
		countTenants(offered, filled)
		return filled
	})
	for i, part := range parts {
		if len(part) == 0 {
			parts[i] = nil
		}
	}
	return parts, offered, nil
}

// Job serves a pre-built trace on one engine of a resolved deployment,
// the way experiments and grid points run. It takes the code path of
// PrepareFleet as one shard with no chaos: Build (nil = engine.NewByName)
// makes the engine from the default config and may change the config,
// pin a plan or pick the sink; Run returns the engine's own Result.
type Job struct {
	Model   model.Config
	Cluster *hardware.Cluster
	Engine  string
	Trace   []workload.Request
	Horizon float64
	Build   EngineBuilder
}

// Prepare builds the job's engine without serving the trace.
func (j Job) Prepare() (*FleetRun, error) {
	if len(j.Trace) == 0 {
		return nil, fmt.Errorf("%s: empty trace", j.Engine)
	}
	f := &FleetRun{EngineName: j.Engine}
	if err := f.build(j, [][]workload.Request{j.Trace}, nil); err != nil {
		return nil, err
	}
	return f, nil
}

// Run serves the job's trace up to its horizon.
func (j Job) Run() (*engine.Result, error) {
	f, err := j.Prepare()
	if err != nil {
		return nil, err
	}
	return f.Run(1)
}

// build makes one shard per part and builds each non-empty shard's engine
// through j.Build from the default config, which tune (if set) adjusts
// for the shard first.
func (f *FleetRun) build(j Job, parts [][]workload.Request, tune func(*engine.Config, *fleetShard)) error {
	build := j.Build
	if build == nil {
		build = engine.NewByName
	}
	f.horizon = j.Horizon
	f.shards = make([]*fleetShard, len(parts))
	for i, part := range parts {
		sh := &fleetShard{reqs: part}
		f.shards[i] = sh
		cfg := engine.DefaultConfig(j.Model, j.Cluster)
		if tune != nil {
			tune(&cfg, sh)
		}
		if len(part) == 0 {
			continue // a shard the router starved has nothing to simulate
		}
		eng, err := build(j.Engine, cfg, part)
		if err != nil {
			return f.shardErr(i, err)
		}
		sh.eng = eng
	}
	f.pipeline = f.shards[0].pipeline
	return nil
}

// shardErr gives shard i's error the run's context; a one-shard run names
// no shard, and a Job's caller names its own run.
func (f *FleetRun) shardErr(i int, err error) error {
	if f.Spec.Name == "" {
		return err
	}
	if len(f.shards) == 1 {
		return fmt.Errorf("scenario %s/%s: %w", f.Spec.Name, f.EngineName, err)
	}
	return fmt.Errorf("scenario %s/%s: shard %d/%d: %w", f.Spec.Name, f.EngineName, i, len(f.shards), err)
}

// Run executes the shards on up to shardWorkers concurrent workers (0 =
// one per CPU, clamped to the shard count) and merges their results in
// shard-index order. A pipelined shard's Pipe is drained as soon as its
// engine returns, so no Pipe goroutine outlives Run. The returned Result
// is the fleet-wide view; Run may be called once per FleetRun.
func (f *FleetRun) Run(shardWorkers int) (*engine.Result, error) {
	if f.ran {
		return nil, fmt.Errorf("scenario %s/%s: FleetRun is single-use; PrepareFleet again for a repeat", f.Spec.Name, f.EngineName)
	}
	f.ran = true
	f.timings.ShardBusy = make([]float64, len(f.shards))
	pool.Each(len(f.shards), shardWorkers, func(i int) {
		sh := f.shards[i]
		if sh.eng == nil {
			return
		}
		//hetis:entropy wall-clock self-profiling; FleetTimings is reporting-only and never reaches a table
		start := time.Now()
		sh.res, sh.err = sh.eng.Run(sh.reqs, f.horizon)
		// A pipelined shard's last records reach its sinks, and the Pipe's
		// goroutine exits, before anything merges or reads them.
		sh.pipeline.drain()
		f.timings.ShardBusy[i] = time.Since(start).Seconds()
	})
	var errs []error
	for i, sh := range f.shards {
		if sh.err != nil {
			// Shard-indexed context so a bad shard is debuggable from the
			// merged error alone.
			errs = append(errs, f.shardErr(i, sh.err))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	//hetis:entropy wall-clock self-profiling; FleetTimings is reporting-only and never reaches a table
	start := time.Now()
	merged, err := f.mergeResults()
	if err != nil {
		return nil, err
	}
	f.timings.Merge = time.Since(start).Seconds()
	f.merged = merged
	// Once merged, the shards are dead weight (a FleetRun is single-use);
	// drop them so a retained FleetRun costs the merged result, not S
	// copies of simulation state. f.pipeline keeps the merged sinks.
	f.shards = nil
	return f.merged, nil
}

// mergeResults folds the per-shard results into the run-wide Result. A
// one-shard run's result is the shard's own, untouched: no record, request
// or trace event is copied. Otherwise shards fold in shard-index order
// onto the first shard with a result — its Result and Recorder — and onto
// shard 0's sink pipeline. Counters sum; Horizon is the latest shard
// horizon; recorders concatenate and traces k-way-merge by time. The
// per-device series (HeadSeries, CacheSeries, DenseTimes, AttnTimes) are
// dropped: device IDs are cluster-local and collide across shards, so a
// fleet-wide device view would attribute different shards' devices to one
// another. CacheCapacity sums to the fleet's total; PeakCacheUsed sums the
// per-shard peaks, an upper bound on the true fleet-wide peak (shards peak
// at different instants). A merge error means the shards' sinks or
// recorders were not built alike; it names the shard that did not fit.
func (f *FleetRun) mergeResults() (*engine.Result, error) {
	if len(f.shards) == 1 {
		return f.shards[0].res, nil
	}
	var out *engine.Result
	var logs []*trace.Log
	for i, sh := range f.shards {
		r := sh.res
		if r == nil {
			continue
		}
		logs = append(logs, r.Trace)
		if out == nil {
			out = r
			continue
		}
		out.CacheCapacity += r.CacheCapacity
		out.PeakCacheUsed += r.PeakCacheUsed
		out.Completed += r.Completed
		out.Evictions += r.Evictions
		out.Migrations += r.Migrations
		out.MigratedBytes += r.MigratedBytes
		out.Dropped += r.Dropped
		out.Queued += r.Queued
		out.Preempted += r.Preempted
		out.Events += r.Events
		out.LPSolves += r.LPSolves
		out.LPSolvesAvoided += r.LPSolvesAvoided
		out.LPSolveSeconds += r.LPSolveSeconds
		out.DecodeSteps += r.DecodeSteps
		out.PerRequestSteps += r.PerRequestSteps
		out.Horizon = max(out.Horizon, r.Horizon)
		if !f.streaming {
			if err := out.Recorder.MergeSink(r.Recorder); err != nil {
				return nil, f.shardErr(i, fmt.Errorf("merging recorder: %w", err))
			}
		}
	}
	out.HeadSeries, out.CacheSeries = nil, nil
	out.DenseTimes, out.AttnTimes = engine.ModuleSeries{}, engine.ModuleSeries{}
	if f.streaming {
		for i, sh := range f.shards[1:] {
			if err := metrics.MergeSinks(f.pipeline.sink, sh.pipeline.sink); err != nil {
				return nil, f.shardErr(i+1, fmt.Errorf("merging sink: %w", err))
			}
		}
		out.Sink = f.pipeline.sink
		return out, nil
	}
	// One time-ordered fleet trace (ties break to the lower shard).
	out.Trace = trace.MergeByTime(logs...)
	return out, nil
}

// Timings returns the run's wall-clock breakdown: the front door once
// prepared, the shards and the merge once Run has succeeded.
func (f *FleetRun) Timings() FleetTimings { return f.timings }

// Result returns the merged fleet-wide result (nil before Run succeeds).
func (f *FleetRun) Result() *engine.Result { return f.merged }

// Tables renders the merged run as the scenario row table (and the merged
// windowed series table for streaming runs with a window).
func (f *FleetRun) Tables() (rows, windows *metrics.Table, err error) {
	if f.merged == nil {
		return nil, nil, fmt.Errorf("scenario %s/%s: run has no result (Run first)", f.Spec.Name, f.EngineName)
	}
	var st runStats
	if f.streaming {
		st = f.pipeline.stats(f.merged.Horizon)
		if f.pipeline.windows != nil {
			windows = f.pipeline.windows.Table()
		}
	} else {
		st = exactStats(f.Spec, f.merged, f.tiered())
	}
	tab := &metrics.Table{Header: HeaderFor(f.chaotic)}
	f.writeRows(tab, st)
	return tab, windows, nil
}

// tiered reports whether the run has tier rows: a chaotic run with tiers.
func (f *FleetRun) tiered() bool { return f.chaotic && len(f.Spec.Tiers) > 0 }
