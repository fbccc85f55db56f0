package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime/pprof"
	"strconv"
	"time"

	"hetis/internal/engine"
	"hetis/internal/fleet"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// repResult is what one rep reports back to the parent process. Times are
// host seconds; Events and TableSHA describe the simulated output and must
// repeat exactly across reps of one seed.
type repResult struct {
	WallS   float64 `json:"wall_s"`
	SetupS  float64 `json:"setup_s"`
	RunS    float64 `json:"run_s"`
	BuildS  float64 `json:"build_s"`
	ReportS float64 `json:"report_s"`
	// Filled in by the parent: the host seconds the reference workload
	// took in a process of its own just before the rep (see host.go), and
	// the rep's peak resident set.
	RefS       float64 `json:"-"`
	PeakRSSMiB float64 `json:"-"`

	Events   uint64 `json:"events"`
	TableSHA string `json:"table_sha256"`

	// Traced reps only: per-layer numbers, raw CPU-profile sample counts
	// per layer, and the spans recorded around each layer call.
	Layers     map[string]float64 `json:"layers,omitempty"`
	CPUSamples map[string]int64   `json:"cpu_samples,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

// span is one timed call into a layer, recorded from the benchmark's own
// files. Start and End are seconds since the rep began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = the rep itself
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// spanLog keeps a rep's spans in memory; nil records nothing, so untraced
// reps pay no bookkeeping.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds()})
	return id
}

// runStats is what a rep keeps from each engine.Result: the counters the
// checks and per-layer metrics read. Untraced reps drop the Result itself
// once Run returns, as hetisbench does after rendering.
type runStats struct {
	offered                                 int
	completed, dropped, queued              int
	events                                  uint64
	evictions, migrations                   int
	migratedBytes, peakCache, cacheCapacity int64
	lpSolves, lpAvoided, lpWarm             int
	lpSeconds                               float64
	runS                                    float64 // host seconds in Run
}

func statsOf(res *engine.Result, offered int) runStats {
	return runStats{
		offered: offered, completed: res.Completed, dropped: res.Dropped, queued: res.Queued,
		events: res.Events, evictions: res.Evictions, migrations: res.Migrations,
		migratedBytes: res.MigratedBytes, peakCache: res.PeakCacheUsed, cacheCapacity: res.CacheCapacity,
		lpSolves: res.LPSolves, lpAvoided: res.LPSolvesAvoided, lpWarm: res.LPWarmStarts,
		lpSeconds: res.LPSolveSeconds,
	}
}

// conserved checks the run's ledger: every offered request completed, was
// dropped, or is still queued.
func (s runStats) conserved() error {
	if s.offered != s.completed+s.dropped+s.queued {
		return fmt.Errorf("conservation broken: offered %d != completed %d + dropped %d + queued %d",
			s.offered, s.completed, s.dropped, s.queued)
	}
	return nil
}

// timedEngine wraps a built engine so the benchmark sees when Run starts
// and ends without touching the library.
type timedEngine struct {
	engine.Engine
	start, end time.Time
	stats      runStats
	keep       bool           // traced reps keep the Result for the trace export
	res        *engine.Result // set only when keep
}

func (e *timedEngine) Run(reqs []workload.Request, horizon float64) (*engine.Result, error) {
	e.start = time.Now()
	res, err := e.Engine.Run(reqs, horizon)
	e.end = time.Now()
	if err == nil {
		e.stats = statsOf(res, len(reqs))
		e.stats.runS = e.end.Sub(e.start).Seconds()
		if e.keep {
			e.res = res
		}
	}
	return res, err
}

// timingSink times the streaming pipeline's Observe work. It forwards
// batches through metrics.ObserveAll so the engine keeps taking the batch
// path it takes unwrapped; a sink without ObserveBatch would push the
// engine onto per-record Observe and measure a different program. Exact
// runs are never wrapped: the engine recognizes its *metrics.Recorder by
// type, and a wrapped recorder would leave Result.Recorder nil.
type timingSink struct {
	inner metrics.Sink
	busy  time.Duration
}

func (s *timingSink) Observe(r metrics.RequestRecord) {
	t := time.Now()
	s.inner.Observe(r)
	s.busy += time.Since(t)
}

func (s *timingSink) ObserveBatch(recs []metrics.RequestRecord) {
	t := time.Now()
	metrics.ObserveAll(s.inner, recs)
	s.busy += time.Since(t)
}

func (s *timingSink) Snapshot() metrics.Snapshot { return s.inner.Snapshot() }

// rep is one measured execution of a workload in the current process.
type rep struct {
	w      workloadDef
	spec   scenario.Spec
	traced bool

	spans *spanLog
	out   repResult
	runs  []runStats
	// Traced reps only: retained results and the streaming timing sinks.
	results []*engine.Result
	sinks   []*timingSink
	table   bytes.Buffer // every engine's table CSV, in engine order
}

// runRep executes the workload once at the seed and returns its timings,
// output fingerprint and — when traced — per-layer numbers and spans.
// The untraced path is exactly the public call hetisbench -scenario makes
// per engine, plus a handful of clock reads.
func runRep(w workloadDef, seed int64, traced bool) (*repResult, error) {
	spec, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	r := &rep{w: w, spec: spec, traced: traced}
	if traced {
		r.spans = &spanLog{t0: time.Now()}
	}
	var profile bytes.Buffer
	var rt0 runtimeSample
	if traced {
		rt0 = readRuntime()
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	t0 := time.Now()
	if spec.Sharded() {
		err = r.runFleet()
	} else {
		err = r.runEngines()
	}
	r.out.WallS = time.Since(t0).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	for _, s := range r.runs {
		if err := s.conserved(); err != nil {
			return nil, err
		}
		r.out.Events += s.events
	}
	sum := sha256.Sum256(r.table.Bytes())
	r.out.TableSHA = hex.EncodeToString(sum[:])
	if traced {
		if err := r.layers(rt0, profile.Bytes()); err != nil {
			return nil, err
		}
		r.out.Spans = r.spans.spans
	}
	return &r.out, nil
}

// runEngines serves the spec on each of its engines through
// scenario.RunEngineSink, timing set-up, Run and table rendering from the
// Options.Build hook and the wrapped engine.
func (r *rep) runEngines() error {
	for _, name := range r.spec.Engines {
		var te *timedEngine
		var buildStart, buildEnd time.Time
		build := func(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error) {
			if r.traced && cfg.Sink != nil {
				ts := &timingSink{inner: cfg.Sink}
				r.sinks = append(r.sinks, ts)
				cfg.Sink = ts
			}
			buildStart = time.Now()
			eng, err := engine.NewByName(name, cfg, reqs)
			buildEnd = time.Now()
			if err != nil {
				return nil, err
			}
			te = &timedEngine{Engine: eng, keep: r.traced}
			return te, nil
		}
		start := time.Now()
		rows, _, err := scenario.RunEngineSink(r.spec, name, scenario.Options{Build: build, Stream: r.w.Stream})
		if err != nil {
			return err
		}
		r.table.WriteString(rows.CSV())
		end := time.Now()
		if te == nil {
			return fmt.Errorf("%s/%s: engine was not built through the hook", r.spec.Name, name)
		}
		if err := checkTable(rows, te.stats); err != nil {
			return err
		}
		r.runs = append(r.runs, te.stats)
		if te.res != nil {
			r.results = append(r.results, te.res)
		}
		r.out.SetupS += te.start.Sub(start).Seconds()
		r.out.BuildS += buildEnd.Sub(buildStart).Seconds()
		r.out.RunS += te.stats.runS
		r.out.ReportS += end.Sub(te.end).Seconds()
		call := r.spans.add("scenario.run_engine:"+name, 0, start, end)
		setup := r.spans.add("scenario.setup", call, start, te.start)
		r.spans.add("engine.build", setup, buildStart, buildEnd)
		r.spans.add("engine.run:"+name, call, te.start, te.end)
		r.spans.add("metrics.report", call, te.end, end)
	}
	return nil
}

// runFleet serves a sharded spec through PrepareFleet, FleetRun.Run and
// Tables — the three calls RunEngineSink makes for a fleet, split so each
// phase is timed.
func (r *rep) runFleet() error {
	name := r.spec.Engines[0]
	start := time.Now()
	fr, err := scenario.PrepareFleet(r.spec, name, scenario.Options{Stream: r.w.Stream})
	if err != nil {
		return err
	}
	runStart := time.Now()
	res, err := fr.Run(r.w.ShardWorkers)
	if err != nil {
		return err
	}
	runEnd := time.Now()
	rows, _, err := fr.Tables()
	if err != nil {
		return err
	}
	r.table.WriteString(rows.CSV())
	end := time.Now()
	offered, err := tableInt(rows, "Offered")
	if err != nil {
		return err
	}
	stats := statsOf(res, offered)
	if err := checkTable(rows, stats); err != nil {
		return err
	}
	r.runs = append(r.runs, stats)
	if r.traced {
		r.results = append(r.results, res)
	}
	r.out.SetupS = runStart.Sub(start).Seconds()
	r.out.RunS = runEnd.Sub(runStart).Seconds()
	r.out.ReportS = end.Sub(runEnd).Seconds()
	call := r.spans.add("scenario.fleet:"+name, 0, start, end)
	r.spans.add("scenario.prepare_fleet", call, start, runStart)
	r.spans.add("fleet.run", call, runStart, runEnd)
	r.spans.add("metrics.report", call, runEnd, end)
	return nil
}

// checkTable cross-checks the rendered aggregate row against the engine's
// own counters: the table must offer and complete what the run did.
func checkTable(rows *metrics.Table, s runStats) error {
	offered, err := tableInt(rows, "Offered")
	if err != nil {
		return err
	}
	completed, err := tableInt(rows, "Completed")
	if err != nil {
		return err
	}
	if offered != s.offered || completed != s.completed {
		return fmt.Errorf("table row offered/completed %d/%d disagrees with the run's %d/%d",
			offered, completed, s.offered, s.completed)
	}
	return nil
}

// tableInt reads an integer column of the table's aggregate (first) row.
func tableInt(t *metrics.Table, column string) (int, error) {
	if len(t.Rows) == 0 {
		return 0, fmt.Errorf("empty result table")
	}
	for i, h := range t.Header {
		if h == column {
			return strconv.Atoi(t.Rows[0][i])
		}
	}
	return 0, fmt.Errorf("result table has no %q column", column)
}

// layers fills the traced rep's per-layer metrics: Result counters,
// runtime/metrics deltas and CPU-profile attribution over the measured
// call, then the extra layer calls that only a traced rep makes (a direct
// trace generation, the trace export, and for fleets the partition, the
// shard engine builds and a 1-worker run).
func (r *rep) layers(rt0 runtimeSample, profile []byte) error {
	rt := readRuntime().sub(rt0)
	samples, err := attributeProfile(profile)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	r.out.CPUSamples = samples

	var agg runStats
	for _, s := range r.runs {
		agg.offered += s.offered
		agg.events += s.events
		agg.evictions += s.evictions
		agg.migrations += s.migrations
		agg.migratedBytes += s.migratedBytes
		agg.peakCache = max(agg.peakCache, s.peakCache)
		agg.cacheCapacity = max(agg.cacheCapacity, s.cacheCapacity)
		agg.lpSolves += s.lpSolves
		agg.lpAvoided += s.lpAvoided
		agg.lpWarm += s.lpWarm
		agg.lpSeconds += s.lpSeconds
	}
	events := float64(agg.events)
	wall := r.out.WallS
	L := map[string]float64{
		"traced.wall_s":                 r.out.WallS,
		"lp.solves":                     float64(agg.lpSolves),
		"lp.warm_starts":                float64(agg.lpWarm),
		"lp.wall_share":                 agg.lpSeconds / wall,
		"dispatch.lp_skip_ratio":        ratio(float64(agg.lpAvoided), float64(agg.lpSolves+agg.lpAvoided)),
		"kvcache.peak_util":             ratio(float64(agg.peakCache), float64(agg.cacheCapacity)),
		"kvcache.evictions_per_request": ratio(float64(agg.evictions), float64(agg.offered)),
		"kvcache.migrations":            float64(agg.migrations),
		"kvcache.migrated_mb":           float64(agg.migratedBytes) / (1 << 20),
		"sim.events":                    events,
		"sim.events_per_request":        ratio(events, float64(agg.offered)),
		"engine.run_s":                  r.out.RunS,
		"metrics.report_s":              r.out.ReportS,
		"runtime.alloc_bytes_per_event": ratio(rt.allocBytes, events),
		"runtime.allocs_per_event":      ratio(rt.allocObjects, events),
		"runtime.gc_cpu_share":          ratio(rt.gcCPU, rt.usedCPU),
		"runtime.gc_cycles":             rt.gcCycles,
	}
	if r.spec.Sharded() {
		L["engine.run_share."+r.spec.Engines[0]] = 1
	} else {
		for i, s := range r.runs {
			L["engine.run_share."+r.spec.Engines[i]] = s.runS / r.out.RunS
		}
	}
	var observe time.Duration
	for _, s := range r.sinks {
		observe += s.busy
	}
	L["metrics.observe_share"] = ratio(observe.Seconds(), r.out.RunS)

	start := time.Now()
	if _, err := r.spec.Trace(); err != nil {
		return err
	}
	end := time.Now()
	r.spans.add("workload.trace", 0, start, end)
	L["workload.trace_s"] = end.Sub(start).Seconds()

	var exportS float64
	for _, res := range r.results {
		if res.Trace == nil {
			continue
		}
		start := time.Now()
		if err := res.Trace.WriteJSONL(io.Discard); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		end := time.Now()
		r.spans.add("trace.export", 0, start, end)
		L["trace.events"] += float64(res.Trace.Len())
		exportS += end.Sub(start).Seconds()
	}
	L["trace.export_share"] = exportS / wall
	r.results = nil

	L["engine.build_s"] = r.out.BuildS
	L["fleet.imbalance"] = 1
	if r.spec.Sharded() {
		if err := r.fleetLayers(L); err != nil {
			return err
		}
	}
	r.out.Layers = L
	return nil
}

// fleetLayers times the fleet's phases by calling them directly: the
// front-door partition, one engine build per shard (PrepareFleet builds
// its engines internally, outside the Build hook), and a second prepared
// run on one shard worker for the scaling ratio.
func (r *rep) fleetLayers(L map[string]float64) error {
	spec := r.spec
	reqs, err := spec.Trace()
	if err != nil {
		return err
	}
	start := time.Now()
	router, err := fleet.NewRouter(spec.Fleet.Policy, spec.Fleet.Shards, spec.Fleet.Weights)
	if err != nil {
		return err
	}
	parts := router.Partition(reqs)
	end := time.Now()
	r.spans.add("fleet.partition", 0, start, end)
	L["fleet.partition_share"] = end.Sub(start).Seconds() / r.out.WallS
	L["fleet.imbalance"] = imbalance(parts)

	m, err := model.ByName(spec.Model)
	if err != nil {
		return err
	}
	cluster, err := scenario.ClusterByName(spec.Cluster)
	if err != nil {
		return err
	}
	var buildS float64
	for _, part := range parts {
		cfg := engine.DefaultConfig(m, cluster)
		if r.w.Stream {
			cfg.Sink = metrics.NewStreamingSink(spec.SLO)
			cfg.NoTrace = true
		}
		start := time.Now()
		if _, err := engine.NewByName(spec.Engines[0], cfg, part); err != nil {
			return err
		}
		end := time.Now()
		r.spans.add("engine.build", 0, start, end)
		buildS += end.Sub(start).Seconds()
	}
	L["engine.build_s"] = buildS
	reqs, parts = nil, nil

	fr, err := scenario.PrepareFleet(spec, spec.Engines[0], scenario.Options{Stream: r.w.Stream})
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := fr.Run(1); err != nil {
		return err
	}
	end = time.Now()
	r.spans.add("fleet.run_w1", 0, start, end)
	L["fleet.speedup_w2"] = end.Sub(start).Seconds() / r.out.RunS
	return nil
}

// imbalance is the largest shard's assigned tokens over the mean shard's:
// with shards run in parallel the heaviest one sets the wall time, so this
// bounds what more shard workers can buy.
func imbalance(parts [][]workload.Request) float64 {
	var total, most float64
	for _, part := range parts {
		var tokens float64
		for _, q := range part {
			tokens += float64(q.TotalLen())
		}
		total += tokens
		most = max(most, tokens)
	}
	return ratio(most*float64(len(parts)), total)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercises).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
