package scenario

import (
	"fmt"
	"sort"

	"hetis/internal/engine"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// Header is the column layout of scenario tables. Every engine contributes
// an aggregate row (Tenant "all"); multi-tenant scenarios add one row per
// tenant, and tiered chaos scenarios one per tier (Tenant "tier:NAME").
// Goodput and Attain are measured against the spec's SLO.
var Header = []string{
	"Scenario", "Engine", "Tenant",
	"Offered", "Completed", "Goodput(req/s)", "Attain(%)",
	"TTFT-p95(s)", "TPOT-p95(s)", "NormLat-mean(s/tok)",
}

// ChaosColumns are the extra columns chaotic scenarios append: admission
// and unservable drops, priority preemptions, and the mean time from a
// failure to the next completion (the recovery measure). Dropped requests
// stay in the attainment denominator and never attain.
var ChaosColumns = []string{"Dropped", "Preempted", "Recovery-mean(s)"}

// HeaderFor returns the table header for a scenario: the base Header, plus
// ChaosColumns when the scenario is chaotic.
func HeaderFor(chaotic bool) []string {
	if !chaotic {
		return Header
	}
	return append(append([]string(nil), Header...), ChaosColumns...)
}

// EngineBuilder constructs a named engine for a config and the trace it
// will serve. The sweep pool injects a cache-backed builder here so grid
// points share plans and profile fits; nil falls back to BuildEngine.
type EngineBuilder func(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error)

// Options tunes a scenario run.
type Options struct {
	// Quick quarters the trace duration, like experiments.Options.Quick.
	Quick bool
	// Build overrides engine construction (nil = BuildEngine).
	Build EngineBuilder

	// Stream measures through constant-memory streaming sinks (and
	// disables the event trace log) instead of the exact recorder:
	// goodput/attainment/counts stay exact, latency percentiles carry the
	// sketch's relative-error bound, and memory stops growing with trace
	// length. The default (false) is the byte-stable golden path.
	Stream bool
	// Window, with Stream, additionally collects a windowed time series
	// (completions, goodput, p95 latency per Window seconds) that
	// RunEngineSink returns as a second table.
	Window float64

	// ShardWorkers bounds how many of a sharded (Spec.Fleet) run's shards
	// execute concurrently; 0 means one worker per CPU (clamped to the
	// shard count), 1 runs the shards sequentially. Output is byte-
	// identical at every value — the knob trades wall clock for cores,
	// never results. Ignored for unsharded specs.
	ShardWorkers int
}

// BuildEngine directly constructs the named engine, planning Hetis for the
// trace.
func BuildEngine(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error) {
	return engine.NewByName(name, cfg, reqs)
}

// ClusterByName resolves a spec's cluster name ("" and "paper" are the
// paper's evaluation cluster). Exported so harnesses that run engines
// directly (internal/bench) resolve deployments exactly like RunEngine.
func ClusterByName(name string) (*hardware.Cluster, error) {
	switch name {
	case "", "paper":
		return hardware.PaperCluster(), nil
	}
	return nil, fmt.Errorf("scenario: unknown cluster %q", name)
}

// MeasurementHorizon is the window a scenario run measures rates over: a
// generous multiple of the trace duration, so queues fully drain while
// every engine shares the same denominator (Result.Horizon advances to
// it on early drain). Harnesses that time engines directly
// (internal/bench, sweep grids) must use the same window so their runs
// replay exactly what the golden harness pinned.
func MeasurementHorizon(duration float64) float64 { return duration * 30 }

// Prepare resolves a spec into its effective form for a run: defaults
// filled and Quick scaling applied. Pooled runners use it so the trace
// they cache matches the trace RunEngine generates.
func Prepare(spec Spec, quick bool) Spec {
	spec = spec.WithDefaults()
	if quick {
		spec.Duration /= 4
	}
	return spec
}

// RunEngine serves the scenario's trace on one engine and returns its rows:
// the aggregate first, then per-tenant rows for multi-tenant mixes.
func RunEngine(spec Spec, engineName string, opts Options) (*metrics.Table, error) {
	rows, _, err := RunEngineSink(spec, engineName, opts)
	return rows, err
}

// streamPipeline is the sink stack a streaming run measures through: an
// aggregate streaming sink — wrapped in a TenantMux only when the trace
// is actually multi-tenant, so single-tenant runs pay one sketch set per
// record, not two — plus an optional windowed series for the dynamic
// plots.
type streamPipeline struct {
	agg     metrics.Sink // the aggregate view: the mux when present, else the bare sink
	mux     *metrics.TenantMux
	tiers   *metrics.KeyedMux
	windows *metrics.WindowedSeries
	sink    metrics.Sink
}

// retainWindows selects mergeable windowed series for the per-shard
// pipelines of a fleet run: per-window p95 cannot be recovered from
// finalized buckets, so shards keep their bucket sketches alive for the
// shard-order merge. Single-cluster runs keep the cheaper streaming form.
func newStreamPipeline(slo metrics.SLOTarget, window float64, tenants bool, tierKey func(metrics.RequestRecord) string, retainWindows bool) *streamPipeline {
	p := &streamPipeline{agg: metrics.NewStreamingSink(slo)}
	if tenants {
		p.mux = metrics.NewTenantMux(p.agg, func(string) metrics.Sink {
			return metrics.NewStreamingSink(slo)
		})
		p.agg = p.mux
	}
	extras := make([]metrics.Sink, 0, 2)
	if window > 0 {
		if retainWindows {
			p.windows = metrics.NewWindowedSeriesRetained(window, slo)
		} else {
			p.windows = metrics.NewWindowedSeries(window, slo)
		}
		extras = append(extras, p.windows)
	}
	if tierKey != nil {
		p.tiers = metrics.NewKeyedMux(tierKey, func(string) metrics.Sink {
			return metrics.NewStreamingSink(slo)
		})
		extras = append(extras, p.tiers)
	}
	p.sink = p.agg
	if len(extras) > 0 {
		p.sink = metrics.NewTee(p.agg, extras...)
	}
	return p
}

// RunEngineSink runs like RunEngine and additionally returns the windowed
// time-series table when the run streamed with Options.Window > 0 (nil
// otherwise).
func RunEngineSink(spec Spec, engineName string, opts Options) (rows, windows *metrics.Table, err error) {
	spec = Prepare(spec, opts.Quick)
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if !engine.Known(engineName) {
		return nil, nil, fmt.Errorf("scenario %s: unknown engine %q", spec.Name, engineName)
	}
	if spec.Sharded() {
		fr, err := prepareFleet(spec, engineName, opts)
		if err != nil {
			return nil, nil, err
		}
		if _, err := fr.Run(opts.ShardWorkers); err != nil {
			return nil, nil, err
		}
		return fr.Tables()
	}
	reqs, err := spec.Trace()
	if err != nil {
		return nil, nil, err
	}
	if len(reqs) == 0 {
		return nil, nil, fmt.Errorf("scenario %s: empty trace", spec.Name)
	}
	m, err := model.ByName(spec.Model)
	if err != nil {
		return nil, nil, err
	}
	cluster, err := ClusterByName(spec.Cluster)
	if err != nil {
		return nil, nil, err
	}
	build := opts.Build
	if build == nil {
		build = BuildEngine
	}
	cfg := engine.DefaultConfig(m, cluster)
	cfg.Chaos = spec.chaosConfig()
	chaotic := cfg.Chaos.Active()
	var stream *streamPipeline
	if opts.Stream {
		var tierKey func(metrics.RequestRecord) string
		if chaotic && len(spec.Tiers) > 0 {
			tierKey = func(r metrics.RequestRecord) string { return spec.tierOf(r.Tenant) }
		}
		stream = newStreamPipeline(spec.SLO, opts.Window, multiTenant(reqs), tierKey, false)
		cfg.Sink = stream.sink
		cfg.NoTrace = true
	}
	eng, err := build(engineName, cfg, reqs)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s/%s: %w", spec.Name, engineName, err)
	}
	res, err := eng.Run(reqs, MeasurementHorizon(spec.Duration))
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s/%s: %w", spec.Name, engineName, err)
	}

	tab := &metrics.Table{Header: HeaderFor(chaotic)}
	if stream != nil {
		streamRows(tab, spec, engineName, reqs, res, stream, chaotic)
		if stream.windows != nil {
			windows = stream.windows.Table()
		}
		return tab, windows, nil
	}
	exactRows(tab, spec, engineName, reqs, res, chaotic)
	return tab, nil, nil
}

// meanOf is the arithmetic mean (0 for an empty slice).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tierPreempted sums a tier's preemption count from the per-tenant ledger.
func tierPreempted(spec Spec, res *engine.Result, tier string) int {
	n := 0
	for _, tenant := range tenantNames(res.PreemptedByTenant) {
		if spec.tierOf(tenant) == tier {
			n += res.PreemptedByTenant[tenant]
		}
	}
	return n
}

// exactRows fills the table from the run's exact recorder — the original,
// golden-pinned path, byte-identical to what it always produced. Chaotic
// runs append the ChaosColumns and per-tier rows.
func exactRows(tab *metrics.Table, spec Spec, engineName string, reqs []workload.Request, res *engine.Result, chaotic bool) {
	rec := res.Recorder
	all, tenants := rec.Breakdown(spec.SLO, res.Horizon, sameTenant)
	row := []any{spec.Name, engineName, "all",
		len(reqs), all.Count,
		all.Goodput,
		100 * all.Attainment,
		all.TTFT.P95,
		all.TPOT.P95,
		all.NormLat.Mean}
	if chaotic {
		row = append(row, all.Dropped, res.Preempted, meanOf(res.RecoveryTimes))
	}
	tab.AddRow(row...)

	if multiTenant(reqs) {
		offered := offeredByTenant(reqs)
		byTenant := statsByName(tenants)
		// Walk the trace's tenant set (sorted), not the recorder's, so
		// tenants whose every request starved still show a zero row.
		for _, tenant := range tenantNames(offered) {
			ts := byTenant[tenant]
			row := []any{spec.Name, engineName, tenant,
				offered[tenant], ts.Count,
				ts.Goodput, 100 * ts.Attainment,
				ts.TTFT.P95, ts.TPOT.P95,
				ts.NormLat.Mean}
			if chaotic {
				row = append(row, ts.Dropped, res.PreemptedByTenant[tenant], 0.0)
			}
			tab.AddRow(row...)
		}
	}

	if chaotic && len(spec.Tiers) > 0 {
		offered := offeredByTenant(reqs)
		_, tiers := rec.Breakdown(spec.SLO, res.Horizon, spec.tierOf)
		byTier := statsByName(tiers)
		for _, t := range spec.Tiers {
			offeredN := 0
			for _, tenant := range tenantNames(offered) {
				if spec.tierOf(tenant) == t.Name {
					offeredN += offered[tenant]
				}
			}
			ts := byTier[t.Name]
			tab.AddRow(spec.Name, engineName, "tier:"+t.Name,
				offeredN, ts.Count,
				ts.Goodput, 100*ts.Attainment,
				ts.TTFT.P95, ts.TPOT.P95, ts.NormLat.Mean,
				ts.Dropped, tierPreempted(spec, res, t.Name), 0.0)
		}
	}
}

// sameTenant is the identity grouping: one Breakdown group per tenant.
func sameTenant(tenant string) string { return tenant }

// statsByName indexes Breakdown groups by name; a group with no records
// reads as the zero row.
func statsByName(groups []metrics.TenantStats) map[string]metrics.TenantStats {
	m := make(map[string]metrics.TenantStats, len(groups))
	for _, ts := range groups {
		m[ts.Tenant] = ts
	}
	return m
}

// streamRows fills the table from streaming-sink snapshots: the same
// columns, with counts/goodput/attainment exact and percentiles carrying
// the sketch bound.
func streamRows(tab *metrics.Table, spec Spec, engineName string, reqs []workload.Request, res *engine.Result, p *streamPipeline, chaotic bool) {
	horizon := res.Horizon
	snap := p.agg.Snapshot()
	row := []any{spec.Name, engineName, "all",
		len(reqs), snap.Count,
		snap.Goodput(horizon),
		100 * snap.Attainment(),
		snap.TTFT.P95,
		snap.TPOT.P95,
		snap.NormLat.Mean}
	if chaotic {
		row = append(row, snap.Dropped, res.Preempted, meanOf(res.RecoveryTimes))
	}
	tab.AddRow(row...)

	if p.mux != nil {
		offered := offeredByTenant(reqs)
		for _, tenant := range tenantNames(offered) {
			var ts metrics.Snapshot
			if sub := p.mux.Tenant(tenant); sub != nil {
				ts = sub.Snapshot()
			}
			row := []any{spec.Name, engineName, tenant,
				offered[tenant], ts.Count,
				ts.Goodput(horizon), 100 * ts.Attainment(),
				ts.TTFT.P95, ts.TPOT.P95,
				ts.NormLat.Mean}
			if chaotic {
				row = append(row, ts.Dropped, res.PreemptedByTenant[tenant], 0.0)
			}
			tab.AddRow(row...)
		}
	}

	if p.tiers != nil {
		offered := offeredByTenant(reqs)
		for _, t := range spec.Tiers {
			var ts metrics.Snapshot
			if sub := p.tiers.Key(t.Name); sub != nil {
				ts = sub.Snapshot()
			}
			offeredN := 0
			for _, tenant := range tenantNames(offered) {
				if spec.tierOf(tenant) == t.Name {
					offeredN += offered[tenant]
				}
			}
			tab.AddRow(spec.Name, engineName, "tier:"+t.Name,
				offeredN, ts.Count,
				ts.Goodput(horizon), 100*ts.Attainment(),
				ts.TTFT.P95, ts.TPOT.P95, ts.NormLat.Mean,
				ts.Dropped, tierPreempted(spec, res, t.Name), 0.0)
		}
	}
}

func offeredByTenant(reqs []workload.Request) map[string]int {
	offered := map[string]int{}
	for _, r := range reqs {
		offered[r.Tenant]++
	}
	return offered
}

// Run serves the scenario on every engine it names, rows in engine order.
func Run(spec Spec, opts Options) (*metrics.Table, error) {
	spec = Prepare(spec, opts.Quick)
	opts.Quick = false // already applied
	tab := &metrics.Table{Header: HeaderFor(spec.Chaotic())}
	for _, eng := range spec.Engines {
		sub, err := RunEngine(spec, eng, opts)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, sub.Rows...)
	}
	return tab, nil
}

func multiTenant(reqs []workload.Request) bool {
	for _, r := range reqs {
		if r.Tenant != "" {
			return true
		}
	}
	return false
}

func tenantNames(offered map[string]int) []string {
	names := make([]string, 0, len(offered))
	for name := range offered {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
