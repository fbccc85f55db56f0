package scenario

import (
	"fmt"
	"math"
	"sort"

	"hetis/internal/engine"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
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
// will serve; nil falls back to engine.NewByName. Tests and the benchmark
// inject a builder to wrap or instrument the engine.
type EngineBuilder func(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error)

// Options tunes a scenario run.
type Options struct {
	// Quick quarters the trace duration, like experiments.Options.Quick.
	Quick bool
	// Build overrides engine construction (nil = engine.NewByName). It
	// builds every shard's engine from the shard's own trace slice.
	Build EngineBuilder

	// Stream measures through constant-memory streaming sinks (and
	// disables the event trace log) instead of the exact recorder:
	// goodput/attainment/counts stay exact, latency percentiles carry the
	// sketch's relative-error bound, and memory stops growing with trace
	// length. The default (false) is the byte-stable golden path.
	Stream bool
	// Window, with Stream, additionally collects a windowed time series
	// (completions, goodput, p95 latency per Window seconds) that
	// RunEngineSink returns as a second table. A positive Window without
	// Stream is refused.
	Window float64

	// pipe overrides PrepareFleet's rule for putting a metrics.Pipe in
	// front of a streaming run's sinks; tests force it on or off.
	pipe pipeMode
}

// pipeMode is Options.pipe: the rule (pipeAuto) or a forced choice.
type pipeMode int8

const (
	pipeAuto pipeMode = iota
	pipeOn
	pipeOff
)

// piped reports whether a streaming run's engine feeds its sinks through a
// metrics.Pipe. The rule is structural: only an unsharded run, whose one
// event loop leaves a core idle for the Pipe's consumer. A sharded run's
// shard workers already fill every core, so its sinks stay synchronous.
// On a single core the consumer time-slices with the loop, which measured
// no slower than synchronous sinks.
func (o Options) piped(sharded bool) bool {
	switch o.pipe {
	case pipeOn:
		return true
	case pipeOff:
		return false
	}
	return !sharded
}

// ClusterByName resolves a spec's cluster name through
// hardware.ParseCluster ("" and "paper" are the paper's evaluation
// cluster). Exported so harnesses that run engines directly (benchmark/)
// resolve deployments exactly like PrepareFleet.
func ClusterByName(name string) (*hardware.Cluster, error) {
	return hardware.ParseCluster(name)
}

// maxWindows caps how many windows Options.Window may cut a run's
// measurement horizon into: the windowed series keeps one slot per window
// up to the last finish, so a tiny window would exhaust memory.
const maxWindows = 1 << 20

// checkWindow refuses an Options.Window the windowed series cannot
// bucket: NaN, infinite or negative, or so small that it cuts the
// horizon of a duration-second trace into more than maxWindows windows.
// Zero collects no series.
func checkWindow(window, duration float64) error {
	if math.IsNaN(window) || math.IsInf(window, 0) || window < 0 {
		return fmt.Errorf("window %g s: must be finite and non-negative (0 collects no series)", window)
	}
	horizon := MeasurementHorizon(duration)
	if window > 0 && horizon/window > maxWindows {
		return fmt.Errorf("window %g s cuts the %g s measurement horizon into more than the cap of %d windows", window, horizon, maxWindows)
	}
	return nil
}

// MeasurementHorizon is the window a scenario run measures rates over: a
// generous multiple of the trace duration, so queues fully drain while
// every engine shares the same denominator (Result.Horizon advances to
// it on early drain). Harnesses that time engines directly
// (sweep grids, the scale tests) must use the same window so their runs
// replay exactly what the golden harness pinned.
func MeasurementHorizon(duration float64) float64 { return duration * 30 }

// Prepare resolves a spec into its effective form for a run: defaults
// filled and Quick scaling applied. Pooled runners use it to read a spec's
// engines and chaos the way PrepareFleet will serve them.
func Prepare(spec Spec, quick bool) Spec {
	spec = spec.WithDefaults()
	if quick {
		spec.Duration /= 4
	}
	return spec
}

// streamPipeline is the sink stack a streaming run measures through:
// Tee(agg, [KeyedMux(tenant)], [KeyedMux(tier)], [windows]). The tenant mux
// exists only when the trace has two or more tenants and the tier mux only
// for tiered chaos runs, so a run of one tenant without windows feeds one
// bare StreamingSink. A trace whose every request names the same tenant
// gets that tenant's row from the aggregate, under its name (sole). A
// pipelined run's engine feeds pipe, which feeds sink.
type streamPipeline struct {
	agg     *metrics.StreamingSink
	tenants *metrics.KeyedMux
	tiers   *metrics.KeyedMux
	windows *metrics.WindowedSeries
	sink    metrics.Sink
	pipe    *metrics.Pipe
	sole    string
}

// newStreamPipeline builds the pipeline for a trace with the given
// per-tenant counts. The shape depends only on offered and tierKey, so
// every shard of a run built from the whole trace's counts merges.
func newStreamPipeline(slo metrics.SLOTarget, window float64, offered map[string]int, tierKey func(metrics.RequestRecord) string) *streamPipeline {
	sub := func(string) metrics.Sink { return metrics.NewStreamingSink(slo) }
	p := &streamPipeline{agg: metrics.NewStreamingSink(slo)}
	var rest []metrics.Sink
	switch {
	case len(offered) > 1:
		p.tenants = metrics.NewKeyedMux(func(r metrics.RequestRecord) string { return r.Tenant }, sub)
		rest = append(rest, p.tenants)
	case multiTenant(offered):
		p.sole = tenantNames(offered)[0]
	}
	if tierKey != nil {
		p.tiers = metrics.NewKeyedMux(tierKey, sub)
		rest = append(rest, p.tiers)
	}
	if window > 0 {
		p.windows = metrics.NewWindowedSeries(window, slo)
		rest = append(rest, p.windows)
	}
	p.sink = p.agg
	if len(rest) > 0 {
		p.sink = metrics.NewTee(p.agg, rest...)
	}
	return p
}

// drain waits for a pipelined run's records to reach the sinks and its
// consumer goroutine to exit; nil-safe, and a no-op for unpiped runs.
func (p *streamPipeline) drain() {
	if p != nil && p.pipe != nil {
		p.pipe.Drain()
	}
}

// stats reads the pipeline's slices as the row writer's input: counts,
// goodput and attainment are exact, percentiles carry the sketch bound.
func (p *streamPipeline) stats(horizon float64) runStats {
	all := p.agg.Snapshot()
	st := runStats{
		all:     all.Stats("", horizon),
		tenants: keyedStats(p.tenants, horizon),
		tiers:   keyedStats(p.tiers, horizon),
	}
	if p.sole != "" {
		st.tenants = map[string]metrics.TenantStats{p.sole: all.Stats(p.sole, horizon)}
	}
	return st
}

// keyedStats indexes a mux's sub-sink snapshots by key (nil for no mux).
func keyedStats(m *metrics.KeyedMux, horizon float64) map[string]metrics.TenantStats {
	if m == nil {
		return nil
	}
	out := map[string]metrics.TenantStats{}
	for _, k := range m.Keys() {
		out[k] = m.Key(k).Snapshot().Stats(k, horizon)
	}
	return out
}

// RunEngineSink serves the scenario's trace on one engine and returns its
// rows — the aggregate first, then per-tenant and per-tier rows — and the
// windowed time-series table when the run streamed with Options.Window > 0
// (nil otherwise). Every spec runs as a FleetRun; an unsharded one is a
// single shard, and a sharded one runs one shard worker per CPU.
func RunEngineSink(spec Spec, engineName string, opts Options) (rows, windows *metrics.Table, err error) {
	fr, err := PrepareFleet(spec, engineName, opts)
	if err != nil {
		return nil, nil, err
	}
	if _, err := fr.Run(0); err != nil {
		return nil, nil, err
	}
	return fr.Tables()
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

// runStats is one run's measured slices for the row writer: the
// aggregate, and the per-tenant and per-tier groups by name (a name with
// no entry reads as the zero row).
type runStats struct {
	all            metrics.TenantStats
	tenants, tiers map[string]metrics.TenantStats
}

// exactStats reads the slices from the run's exact recorder; tier groups
// are summarized only for tiered runs.
func exactStats(spec Spec, res *engine.Result, tiered bool) runStats {
	all, tenants := res.Recorder.Breakdown(spec.SLO, res.Horizon, sameTenant)
	st := runStats{all: all, tenants: statsByName(tenants)}
	if tiered {
		_, tiers := res.Recorder.Breakdown(spec.SLO, res.Horizon, spec.tierOf)
		st.tiers = statsByName(tiers)
	}
	return st
}

// writeRows fills the table from the merged run's slices: the aggregate
// row, one row per tenant of a multi-tenant trace and one per tier of a
// tiered run. Chaotic runs append the ChaosColumns.
func (f *FleetRun) writeRows(tab *metrics.Table, st runStats) {
	spec, res := f.Spec, f.merged
	add := func(name string, offered int, ts metrics.TenantStats, preempted int, recovery float64) {
		row := []any{spec.Name, f.EngineName, name,
			offered, ts.Count,
			ts.Goodput, 100 * ts.Attainment,
			ts.TTFT.P95, ts.TPOT.P95,
			ts.NormLat.Mean}
		if f.chaotic {
			row = append(row, ts.Dropped, preempted, recovery)
		}
		tab.AddRow(row...)
	}
	add("all", f.offered, st.all, res.Preempted, meanOf(res.RecoveryTimes))

	offered := f.offeredBy
	if f.tenants {
		// Walk the trace's tenant set (sorted), not the measured one, so
		// tenants whose every request starved still show a zero row.
		for _, tenant := range tenantNames(offered) {
			add(tenant, offered[tenant], st.tenants[tenant], res.PreemptedByTenant[tenant], 0)
		}
	}
	if f.tiered() {
		for _, t := range spec.Tiers {
			n := 0
			for _, tenant := range tenantNames(offered) {
				if spec.tierOf(tenant) == t.Name {
					n += offered[tenant]
				}
			}
			add("tier:"+t.Name, n, st.tiers[t.Name], tierPreempted(spec, res, t.Name), 0)
		}
	}
}

// sameTenant is the identity grouping: one Breakdown group per tenant.
func sameTenant(tenant string) string { return tenant }

// statsByName indexes Breakdown groups by name.
func statsByName(groups []metrics.TenantStats) map[string]metrics.TenantStats {
	m := make(map[string]metrics.TenantStats, len(groups))
	for _, ts := range groups {
		m[ts.Tenant] = ts
	}
	return m
}

// offeredByTenant counts the trace's requests per tenant. A run of one
// tenant costs one map write, so a single-tenant trace costs one.
func offeredByTenant(reqs []workload.Request) map[string]int {
	offered := map[string]int{}
	for i := 0; i < len(reqs); {
		j := i + 1
		for j < len(reqs) && reqs[j].Tenant == reqs[i].Tenant {
			j++
		}
		offered[reqs[i].Tenant] += j - i
		i = j
	}
	return offered
}

// multiTenant reports whether any request of the trace names a tenant,
// from the trace's per-tenant counts.
func multiTenant(offered map[string]int) bool {
	_, untenanted := offered[""]
	return len(offered) > 1 || (len(offered) == 1 && !untenanted)
}

func tenantNames(offered map[string]int) []string {
	names := make([]string, 0, len(offered))
	for name := range offered {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
