package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion identifies the BENCH.json layout. Consumers (CI trend
// jobs, plots) must check it before reading fields; ReadFile accepts only
// this version. Version 4 added the `fleet` shard-scaling section, the
// header's gomaxprocs, and per-row shard counts.
const SchemaVersion = "hetis-bench/4"

// ScenarioBench is one (scenario, engine) measurement of the canonical
// suite.
type ScenarioBench struct {
	Scenario string `json:"scenario"`
	Engine   string `json:"engine"`
	// Sink is the measurement mode ("streaming"; empty means exact, the
	// default and the only mode schema v1 had).
	Sink string `json:"sink,omitempty"`

	// WallSeconds is the best-of-Repeat serving wall-clock of Engine.Run
	// (trace generation and engine construction excluded).
	WallSeconds float64 `json:"wall_seconds"`
	// Events is the number of discrete events the run executed;
	// EventsPerSec is Events/WallSeconds.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Completed confirms the measured run served the whole trace the same
	// way the golden harness observed it.
	Completed int `json:"completed"`
	// AllocsPerEvent and AllocBytesPerEvent are allocation counts/volume
	// amortized over executed events (from runtime.MemStats deltas around
	// the measured run).
	AllocsPerEvent     float64 `json:"allocs_per_event"`
	AllocBytesPerEvent float64 `json:"alloc_bytes_per_event"`
	// LPSolves / LPSolvesAvoided expose the dispatch-layer solver work: how
	// many placement simplex solves ran, and how many §5.3.1 relaxations
	// the lower-bound test skipped (older reports also count placement
	// memo hits).
	LPSolves        int `json:"lp_solves"`
	LPSolvesAvoided int `json:"lp_solves_avoided"`
	// Shards and ShardWorkers mark a fleet measurement (schema v4): the
	// scenario ran as Shards independent cluster replicas executed on up to
	// ShardWorkers concurrent workers. Zero means the classic
	// single-cluster run.
	Shards       int `json:"shards,omitempty"`
	ShardWorkers int `json:"shard_workers,omitempty"`
	// LPIdealSolves / LPPatchedRows / LPSolveSeconds are the solver
	// telemetry of schema v3: §5.3.1 relaxation evaluations (solved
	// exactly, not by the simplex), placement-LP rows patched in place,
	// and wall-clock spent posing and solving placement LPs.
	LPIdealSolves  int     `json:"lp_ideal_solves"`
	LPPatchedRows  int     `json:"lp_patched_rows"`
	LPSolveSeconds float64 `json:"lp_solve_seconds"`
}

// LPStats aggregates the dispatch-layer solver work over a suite
// (schema v3's `lp` section).
type LPStats struct {
	Solves        int `json:"solves"`
	SolvesAvoided int `json:"solves_avoided"`
	// IdealSolves counts §5.3.1 relaxation evaluations. They are solved
	// exactly, not by the simplex, so they are not part of Solves.
	IdealSolves int `json:"ideal_solves"`
	// PatchedRows counts constraint rows mutated in place when the
	// recurring placement LP was re-posed as a patch.
	PatchedRows int `json:"patched_rows"`
	// SolveSeconds is wall-clock inside placement LP solves across the
	// suite; WallShare is SolveSeconds divided by the suite wall-clock.
	SolveSeconds float64 `json:"solve_seconds"`
	WallShare    float64 `json:"wall_share"`
}

// MicroBench is one micro-benchmark result (testing.Benchmark under the
// hood, so Ns/allocs are per-op).
type MicroBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Suite aggregates the scenario measurements.
type Suite struct {
	// WallSeconds is the summed serving wall-clock of every (scenario,
	// engine) pair — the headline number speedups are computed from.
	WallSeconds  float64 `json:"wall_seconds"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`

	LPSolves        int `json:"lp_solves"`
	LPSolvesAvoided int `json:"lp_solves_avoided"`

	// LP is the schema-v3 solver section: relaxation evaluations, patched
	// rows, and the LP share of suite wall-clock.
	LP LPStats `json:"lp"`

	// CacheHits/CacheMisses report the sweep memo cache (shared traces,
	// plans, profile fits) over the suite's engine constructions.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`

	Scenarios []ScenarioBench `json:"scenarios"`
}

// Report is the BENCH.json document: the current measurement, optional
// micro-benchmarks, and an optional pre-optimization baseline the current
// suite is compared against.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the effective parallelism limit of the measuring
	// process (schema v4). Scaling numbers — the fleet section above all —
	// are only interpretable against it: num_cpu says what the machine
	// has, gomaxprocs what the run was allowed to use.
	GoMaxProcs int `json:"gomaxprocs"`
	// Quick records whether the suite ran at reduced scale; quick and
	// full-scale numbers are not comparable.
	Quick bool `json:"quick"`
	// Stream records whether the suite measured through streaming sinks;
	// exact and streaming suites are not comparable either.
	Stream bool `json:"stream,omitempty"`

	Suite Suite        `json:"suite"`
	Micro []MicroBench `json:"micro,omitempty"`
	// Sinks is the exact-vs-streaming comparison on the sink scenario
	// (megascale by default): same trace, same engine, the measurement
	// path swapped — the recorded proof that streaming measurement memory
	// does not grow with trace length.
	Sinks []SinkBench `json:"sinks,omitempty"`
	// Fleet is the shard-scaling section (schema v4): the fleet scenario
	// measured at increasing shard-worker counts, same merged output every
	// row — the recorded proof that intra-run parallelism buys wall-clock
	// without buying nondeterminism.
	Fleet *FleetScaling `json:"fleet,omitempty"`

	// Baseline carries a reference suite (recorded pre-optimization with
	// the same harness); SpeedupVsBaseline is
	// Baseline.WallSeconds/Suite.WallSeconds.
	Baseline          *Suite  `json:"baseline,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// WithBaseline attaches a reference suite and computes the speedup.
// Callers should check SamePairs first: a ratio over different pair sets
// measures suite size, not performance.
func (r *Report) WithBaseline(b *Suite) {
	r.Baseline = b
	if b != nil && r.Suite.WallSeconds > 0 {
		r.SpeedupVsBaseline = b.WallSeconds / r.Suite.WallSeconds
	}
}

// SamePairs reports whether two suites measured the same (scenario,
// engine) pairs in the same order — the precondition for a meaningful
// wall-clock ratio between them.
func SamePairs(a, b *Suite) bool {
	if a == nil || b == nil || len(a.Scenarios) != len(b.Scenarios) {
		return false
	}
	for i := range a.Scenarios {
		if a.Scenarios[i].Scenario != b.Scenarios[i].Scenario ||
			a.Scenarios[i].Engine != b.Scenarios[i].Engine {
			return false
		}
	}
	return true
}

// Write marshals the report as indented JSON to path.
func Write(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile parses a BENCH.json document and checks its schema.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema %q, this build reads %q", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}
