// Package hetis is a faithful, simulation-backed reproduction of
// "Hetis: Serving LLMs in Heterogeneous GPU Clusters with Fine-grained and
// Dynamic Parallelism" (SC '25). It provides:
//
//   - a calibrated analytic performance model of heterogeneous GPU clusters
//     (A100 / RTX 3090 / P100 and more) and their interconnects;
//   - the Hetis scheduling stack — the hierarchical primary-worker
//     parallelism search (§4.1), dynamic head-wise Attention parallelism
//     (§4.2), profiled linear cost models (§5.1), the online head
//     dispatching LP (§5.2) and re-dispatching (§5.3), and head-granular
//     KV-cache management (§6);
//   - the Splitwise and HexGen baselines of the paper's evaluation;
//   - iteration-level serving simulators that replay request traces and
//     report TTFT, TPOT, and normalized latency;
//   - every table and figure of §7 as a runnable experiment.
//
// The API below re-exports the stable surface of the internal packages.
// Construct a cluster, pick a model, plan a deployment, build an engine,
// and run a workload:
//
//	cluster := hetis.PaperCluster()
//	cfg := hetis.DefaultEngineConfig(hetis.Llama13B, cluster)
//	reqs := hetis.PoissonTrace(hetis.ShareGPT, 5, 60, 1)
//	plan, _ := hetis.PlanDeployment(cfg, reqs)
//	eng, _ := hetis.NewHetisEngine(cfg, plan)
//	res, _ := eng.Run(reqs, 0)
//	fmt.Printf("completed %d/%d requests, p95 TTFT %.2fs\n",
//		res.Completed, len(reqs), res.Recorder.Snapshot().TTFT.P95)
//
// (The package Example keeps this snippet compiling and verifies its
// output.) Sweeps over {model × dataset × rate × engine} grids and pooled
// experiment runs live behind RunGrid and RunExperiments; the hetisbench
// command is their CLI.
package hetis

import (
	"hetis/internal/engine"
	"hetis/internal/experiments"
	"hetis/internal/fleet"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/parallelizer"
	"hetis/internal/profile"
	"hetis/internal/scenario"
	"hetis/internal/sweep"
	"hetis/internal/workload"
)

// --- Hardware ----------------------------------------------------------------

// GPUSpec describes one GPU model's capability.
type GPUSpec = hardware.GPUSpec

// LinkSpec is an alpha-beta communication channel.
type LinkSpec = hardware.LinkSpec

// Cluster is an immutable heterogeneous GPU cluster description.
type Cluster = hardware.Cluster

// ClusterBuilder assembles clusters host by host.
type ClusterBuilder = hardware.Builder

// DeviceID identifies a GPU within a cluster.
type DeviceID = hardware.DeviceID

// GPU presets (datasheet capabilities calibrated against the paper's
// Table 1 where applicable).
var (
	A100    = hardware.A100
	H100    = hardware.H100
	V100    = hardware.V100
	A40     = hardware.A40
	RTX3090 = hardware.RTX3090
	L4      = hardware.L4
	T4      = hardware.T4
	P100    = hardware.P100
)

// Interconnect presets.
var (
	LAN100G  = hardware.LAN100G
	LAN25G   = hardware.LAN25G
	PCIe3x16 = hardware.PCIe3x16
	PCIe4x16 = hardware.PCIe4x16
	NVLink3  = hardware.NVLink3
)

// NewClusterBuilder starts a cluster joined by the given inter-host link.
func NewClusterBuilder(inter LinkSpec) *ClusterBuilder {
	return hardware.NewBuilder(inter)
}

// PaperCluster reproduces the paper's evaluation cluster: 4×A100-80GB,
// 2×2×RTX 3090, 4×P100 over 100 GbE.
func PaperCluster() *Cluster { return hardware.PaperCluster() }

// ParseCluster resolves a cluster name: "paper" (or "") is PaperCluster,
// and a list like "4xA100,4x3090" builds one host per entry over 100 GbE.
func ParseCluster(spec string) (*Cluster, error) { return hardware.ParseCluster(spec) }

// GPUByName resolves a preset GPU spec by name ("A100", "3090", "P100", …).
func GPUByName(name string) (GPUSpec, error) { return hardware.SpecByName(name) }

// --- Models -------------------------------------------------------------------

// ModelConfig describes a transformer architecture.
type ModelConfig = model.Config

// Model presets used in the paper's evaluation.
var (
	OPT27B   = model.OPT27B
	OPT13B   = model.OPT13B
	OPT30B   = model.OPT30B
	Llama13B = model.Llama13B
	Llama70B = model.Llama70B
)

// ModelByName resolves a preset model ("Llama-70B", "OPT-30B", …).
func ModelByName(name string) (ModelConfig, error) { return model.ByName(name) }

// --- Workloads ----------------------------------------------------------------

// Request is one inference request of a trace.
type Request = workload.Request

// Dataset is a token-length distribution standing in for a serving corpus.
type Dataset = workload.LengthDist

// Dataset presets matching the paper's three applications.
var (
	ShareGPT  = workload.ShareGPT  // chatbot
	HumanEval = workload.HumanEval // code completion
	LongBench = workload.LongBench // summarization
)

// DatasetByName resolves "ShareGPT"/"SG", "HumanEval"/"HE", "LongBench"/"LB".
func DatasetByName(name string) (Dataset, error) { return workload.ByName(name) }

// PoissonTrace generates a trace at `rate` requests/second for `duration`
// simulated seconds with the given seed.
func PoissonTrace(d Dataset, rate, duration float64, seed int64) []Request {
	return workload.Poisson(d, rate, duration, seed)
}

// --- Planning -----------------------------------------------------------------

// Plan is a deployment produced by the Parallelizer: primary-worker stages
// plus the Attention-worker pool, per data-parallel instance.
type Plan = parallelizer.Plan

// PlanWorkload describes the request distribution R the Parallelizer
// optimizes for.
type PlanWorkload = parallelizer.Workload

// PlanOptions tunes the hierarchical search: the exclusion threshold Δ,
// the extended tier-suffix search, and a forced instance count.
type PlanOptions = parallelizer.Options

// DefaultPlanOptions mirrors the paper (Δ = 0.05).
func DefaultPlanOptions() PlanOptions { return parallelizer.DefaultOptions() }

// SearchPlan runs the §4.1 hierarchical search directly.
func SearchPlan(cluster *Cluster, m ModelConfig, wl PlanWorkload, opts PlanOptions) (*Plan, error) {
	est, err := NewEstimator(m)
	if err != nil {
		return nil, err
	}
	return parallelizer.Search(cluster, est, wl, opts)
}

// PlanDeployment plans Hetis for a trace's aggregate statistics.
func PlanDeployment(cfg EngineConfig, reqs []Request) (*Plan, error) {
	return engine.PlanForWorkload(cfg, reqs)
}

// --- Engines ------------------------------------------------------------------

// EngineConfig carries the runtime knobs shared by all serving engines.
type EngineConfig = engine.Config

// Result is what a serving run produces: the latency recorder, cache
// statistics, per-module latencies and the event trace.
type Result = engine.Result

// Engine is a runnable serving-system simulation.
type Engine = engine.Engine

// HetisEngine is the paper's system.
type HetisEngine = engine.Hetis

// SplitwiseEngine is the phase-splitting baseline.
type SplitwiseEngine = engine.Splitwise

// HexGenEngine is the static parameter-splitting baseline.
type HexGenEngine = engine.HexGen

// Profile carries the fitted Eq. 3 / Eq. 4 models.
type Profile = profile.Profile

// DefaultEngineConfig returns the standard configuration for a model on a
// cluster (Θ = 0.5, vLLM-like batching limits).
func DefaultEngineConfig(m ModelConfig, cluster *Cluster) EngineConfig {
	return engine.DefaultConfig(m, cluster)
}

// NewHetisEngine builds the Hetis engine from a deployment plan.
func NewHetisEngine(cfg EngineConfig, plan *Plan) (*HetisEngine, error) {
	return engine.NewHetis(cfg, plan)
}

// NewSplitwiseEngine builds the Splitwise baseline.
func NewSplitwiseEngine(cfg EngineConfig) (*SplitwiseEngine, error) {
	return engine.NewSplitwise(cfg)
}

// NewHexGenEngine builds the HexGen baseline.
func NewHexGenEngine(cfg EngineConfig) (*HexGenEngine, error) {
	return engine.NewHexGen(cfg)
}

// --- Metrics ------------------------------------------------------------------

// Summary holds order statistics of a latency metric.
type Summary = metrics.Summary

// Table is an aligned text table, the output format of experiments.
type Table = metrics.Table

// MetricsSink consumes finished-request records as engines emit them; set
// EngineConfig.Sink to swap the measurement path.
type MetricsSink = metrics.Sink

// MetricsSnapshot is the uniform aggregate view every sink produces.
type MetricsSnapshot = metrics.Snapshot

// ExactRecorder stores every record (exact summaries, O(n) memory) — the
// default sink and the one golden traces pin.
type ExactRecorder = metrics.ExactRecorder

// StreamingSink summarizes the stream in constant memory: running
// mean/min/max/count, exact SLO attainment, and relative-error quantile
// sketches for TTFT/TPOT/normalized latency.
type StreamingSink = metrics.StreamingSink

// WindowedSeries buckets completions into fixed-width time windows —
// the streaming counterpart of the dynamic-behaviour plots.
type WindowedSeries = metrics.WindowedSeries

// WindowStat is one bucket of a WindowedSeries.
type WindowStat = metrics.WindowStat

// KeyedMux fans records out by a record→key function (tenant, tier, …),
// one lazily created sub-sink per key.
type KeyedMux = metrics.KeyedMux

// MetricsRecord is one finished request as sinks observe it.
type MetricsRecord = metrics.RequestRecord

// SinkTee fans every record out to several sinks.
type SinkTee = metrics.Tee

// NewExactRecorder returns the store-everything sink; slo tunes what its
// snapshot counts as attained.
func NewExactRecorder(slo SLOTarget) *ExactRecorder { return metrics.NewExactRecorder(slo) }

// NewStreamingSink returns a constant-memory sink measuring attainment
// against slo.
func NewStreamingSink(slo SLOTarget) *StreamingSink { return metrics.NewStreamingSink(slo) }

// NewWindowedSeries returns a windowed-series sink with the given bucket
// width in simulated seconds.
func NewWindowedSeries(window float64, slo SLOTarget) *WindowedSeries {
	return metrics.NewWindowedSeries(window, slo)
}

// NewKeyedMux fans records to a lazily created sub-sink per key; tee it
// behind an aggregate sink when the whole-run view is needed too.
func NewKeyedMux(key func(MetricsRecord) string, make func(key string) MetricsSink) *KeyedMux {
	return metrics.NewKeyedMux(key, make)
}

// NewSinkTee builds a tee over primary plus further sinks; Snapshot
// follows primary.
func NewSinkTee(primary MetricsSink, rest ...MetricsSink) *SinkTee {
	return metrics.NewTee(primary, rest...)
}

// --- Experiments ----------------------------------------------------------------

// ExperimentOptions tunes experiment scale (Quick shrinks traces, Seed
// offsets the built-in trace seeds for independent replicas).
type ExperimentOptions = experiments.Options

// ExperimentIDs lists the registered paper experiments (table1, fig2, …).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables/figures by id.
func RunExperiment(id string, opts ExperimentOptions) (*Table, error) {
	return experiments.Run(id, opts)
}

// --- Sweeps -------------------------------------------------------------------

// SweepOptions bounds a worker pool (Jobs; 0 = NumCPU) and the shard
// workers of sharded scenarios (ShardWorkers; 0 = NumCPU).
type SweepOptions = sweep.Options

// SweepResult is one pooled run's keyed outcome.
type SweepResult = sweep.Result

// GridSpec describes a {model × dataset × rate × engine} sweep.
type GridSpec = sweep.GridSpec

// GridPoint is one grid coordinate.
type GridPoint = sweep.Point

// RunGrid sweeps the grid on a bounded worker pool; the merged table
// follows grid order independent of completion order, byte-identical for
// any job count.
func RunGrid(spec GridSpec, opts SweepOptions) (*Table, error) {
	return sweep.RunGrid(spec, opts)
}

// ParseGridDims folds "key=v1,v2,..." dimension specs (engine, dataset,
// rate, model, duration, seed) into a GridSpec.
func ParseGridDims(spec GridSpec, dims []string) (GridSpec, error) {
	return sweep.ParseDims(spec, dims)
}

// RunExperiments executes several paper experiments concurrently on the
// pool, results ordered by id.
func RunExperiments(ids []string, opts ExperimentOptions, pool SweepOptions) ([]SweepResult, error) {
	return experiments.RunMany(ids, opts, pool)
}

// VLLMEngine is the homogeneous reference: vLLM-style tensor-parallel
// serving on the cluster's top GPU tier only, ignoring low-end devices.
type VLLMEngine = engine.VLLM

// NewVLLMEngine builds the homogeneous reference engine.
func NewVLLMEngine(cfg EngineConfig) (*VLLMEngine, error) {
	return engine.NewVLLM(cfg)
}

// --- Scenarios ----------------------------------------------------------------

// Scenario is a declarative serving scenario: traffic shape, multi-tenant
// workload mix, latency SLO, deployment, and engines.
type Scenario = scenario.Spec

// ScenarioTraffic declaratively describes an arrival process (poisson,
// mmpp, diurnal, flashcrowd, closedloop).
type ScenarioTraffic = scenario.Traffic

// ScenarioOptions tunes a scenario run.
type ScenarioOptions = scenario.Options

// SLOTarget is a latency service objective (TTFT/TPOT ceilings); requests
// meeting it count toward goodput.
type SLOTarget = metrics.SLOTarget

// TenantStats is one tenant's slice of a run: completions, SLO attainment,
// goodput, and latency summaries.
type TenantStats = metrics.TenantStats

// MixEntry is one tenant of a multi-tenant workload mix.
type MixEntry = workload.MixEntry

// MMPPState is one phase of a cyclic Markov-modulated (bursty) Poisson
// arrival process.
type MMPPState = workload.MMPPState

// ScenarioFailure is one replica failure window of a chaotic scenario;
// Start and End are fractions of the trace duration.
type ScenarioFailure = scenario.FailureEvent

// ScenarioAutoscale is the SLO-driven replica controller of a chaotic
// scenario; Interval and Lag are fractions of the trace duration.
type ScenarioAutoscale = scenario.AutoscaleSpec

// ScenarioTier is one priority class of a tiered scenario: its tenants,
// preemption priority, and optional admission cap.
type ScenarioTier = scenario.TierSpec

// ScenarioFleet shards a scenario across independent cluster replicas
// behind a deterministic front-door router; the shards run concurrently
// and merge in shard-index order, so output is byte-identical at any
// worker count (SweepOptions.ShardWorkers).
type ScenarioFleet = scenario.FleetSpec

// Fleet routing policies: smooth weighted round-robin, least assigned
// prompt+output tokens, and FNV-1a tenant affinity.
const (
	FleetPolicyWeighted    = fleet.PolicyWeighted
	FleetPolicyLeastLoaded = fleet.PolicyLeastLoaded
	FleetPolicyAffinity    = fleet.PolicyAffinity
)

// FleetPolicies lists the routing policies in registration order.
func FleetPolicies() []string { return fleet.Policies() }

// DefaultSLO is the objective scenarios inherit when they set none.
var DefaultSLO = scenario.DefaultSLO

// ScenarioNames lists the registered scenarios in sorted order.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioSuiteNames lists the non-heavy scenarios "all"-style expansions
// run; heavy scenarios (megascale) run when named explicitly.
func ScenarioSuiteNames() []string { return scenario.SuiteNames() }

// ScenarioByName resolves a registered scenario.
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// RegisterScenario adds a scenario to the catalog.
func RegisterScenario(s Scenario) error { return scenario.Register(s) }

// RunScenario serves one scenario on every engine it names, rows in
// engine order, through the pooled runner RunScenarios uses: the engines
// run concurrently, so an opts.Build hook must be safe for that.
func RunScenario(s Scenario, opts ScenarioOptions) (*Table, error) {
	tab, _, err := sweep.RunScenariosSink([]Scenario{s}, 0, opts, SweepOptions{})
	return tab, err
}

// ScenarioWindows is one (scenario, engine) run's windowed time series.
type ScenarioWindows = sweep.ScenarioWindows

// RunScenarios serves the named scenarios (or the non-heavy catalog, for
// ["all"]) on a bounded worker pool; the merged table follows catalog
// order, byte-identical for any job count. seed offsets every scenario's
// own seed. opts.Stream measures through constant-memory streaming sinks
// — the mode million-request scenarios (megascale) are built for — and
// opts.Window > 0 additionally returns each pair's windowed time series in
// pair order. A NaN, infinite or negative window, or one that cuts a run's
// measurement horizon into more than 1<<20 windows, is refused.
func RunScenarios(names []string, seed int64, opts ScenarioOptions, pool SweepOptions) (*Table, []ScenarioWindows, error) {
	specs, err := scenario.ByNames(names)
	if err != nil {
		return nil, nil, err
	}
	return sweep.RunScenariosSink(specs, seed, opts, pool)
}
