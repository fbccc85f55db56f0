package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hetis/internal/scenario"
)

// TestRunQuickSteady measures one scenario at quick scale and sanity-checks
// every reported field.
func TestRunQuickSteady(t *testing.T) {
	rep, err := Run(Options{Scenarios: []string{"steady"}, Quick: true, SkipMicro: true, SkipSinks: true, SkipFleet: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaVersion {
		t.Errorf("schema %q want %q", rep.Schema, SchemaVersion)
	}
	spec, err := scenario.ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.WithDefaults().Engines); len(rep.Suite.Scenarios) != want {
		t.Fatalf("measured %d pairs want %d", len(rep.Suite.Scenarios), want)
	}
	for _, sb := range rep.Suite.Scenarios {
		if sb.Scenario != "steady" {
			t.Errorf("unexpected scenario %q", sb.Scenario)
		}
		if sb.WallSeconds <= 0 || sb.Events == 0 || sb.EventsPerSec <= 0 {
			t.Errorf("%s/%s: empty measurement %+v", sb.Scenario, sb.Engine, sb)
		}
		if sb.Completed == 0 {
			t.Errorf("%s/%s: no requests completed", sb.Scenario, sb.Engine)
		}
		if sb.Engine == "hetis" && sb.LPSolves == 0 {
			t.Errorf("hetis run reports zero LP solves")
		}
	}
	if rep.Suite.WallSeconds <= 0 || rep.Suite.Events == 0 {
		t.Errorf("suite totals empty: %+v", rep.Suite)
	}
	if rep.Suite.CacheMisses == 0 {
		t.Errorf("suite should have populated the sweep cache")
	}
}

// TestScenarioSelectionDeterministic pins the selection rule: the report
// lists scenarios in sorted name order whatever order the caller gives,
// and defaults to the full registry.
func TestScenarioSelectionDeterministic(t *testing.T) {
	rep, err := Run(Options{Scenarios: []string{"steady", "bursty"}, Quick: true, SkipMicro: true, SkipSinks: true, SkipFleet: true})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, sb := range rep.Suite.Scenarios {
		if len(order) == 0 || order[len(order)-1] != sb.Scenario {
			order = append(order, sb.Scenario)
		}
	}
	if want := []string{"bursty", "steady"}; !reflect.DeepEqual(order, want) {
		t.Errorf("scenario order %v want %v (sorted regardless of input order)", order, want)
	}
}

// TestReportRoundTrip pins the BENCH.json schema: Write then ReadFile must
// reproduce the report exactly, and a wrong schema version must be
// rejected.
func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		Schema:    SchemaVersion,
		GoVersion: "go1.24.0",
		GOOS:      "linux",
		GOARCH:    "amd64",
		NumCPU:    1,
		Suite: Suite{
			WallSeconds:  1.25,
			Events:       100,
			EventsPerSec: 80,
			LPSolves:     7,
			Scenarios: []ScenarioBench{{
				Scenario: "steady", Engine: "hetis",
				WallSeconds: 1.25, Events: 100, EventsPerSec: 80,
				Completed: 42, AllocsPerEvent: 3.5, LPSolves: 7,
			}},
		},
		Micro: []MicroBench{{Name: "sim/schedule-run-1024", NsPerOp: 123.4, AllocsPerOp: 5, BytesPerOp: 640}},
	}
	rep.WithBaseline(&Suite{WallSeconds: 2.5, Events: 100})
	if rep.SpeedupVsBaseline != 2 {
		t.Fatalf("speedup=%g want 2", rep.SpeedupVsBaseline)
	}

	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := Write(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round trip diverged:\nwrote %+v\nread  %+v", rep, back)
	}

	bad := *rep
	bad.Schema = "hetis-bench/999"
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := Write(badPath, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(badPath); err == nil {
		t.Error("ReadFile accepted an unknown schema version")
	}
}

// TestReadFileRejectsOlderSchemas pins that ReadFile reads only the
// current layout: a hetis-bench/3 document fails with an error naming its
// schema.
func TestReadFileRejectsOlderSchemas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v3.json")
	if err := os.WriteFile(path, []byte(`{"schema": "hetis-bench/3"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path)
	if err == nil || !strings.Contains(err.Error(), `"hetis-bench/3"`) {
		t.Errorf("ReadFile(v3) err = %v, want a rejection naming hetis-bench/3", err)
	}
}

// TestRunUnknownScenario surfaces registry misses instead of measuring a
// partial suite.
func TestRunUnknownScenario(t *testing.T) {
	if _, err := Run(Options{Scenarios: []string{"nope"}, Quick: true, SkipMicro: true, SkipSinks: true, SkipFleet: true}); err == nil {
		t.Fatal("expected unknown-scenario error")
	}
}

// TestRunMicro smokes the micro set: every benchmark must produce a
// positive per-op time and a stable name for the report.
func TestRunMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("micro benchmarks take a few seconds")
	}
	micros := RunMicro()
	want := []string{
		"sim/schedule-run-1024",
		"sim/wheel-cascade-64k",
		"sim/cancel-heavy-4096",
		"engine/queue-storm-4096",
		"dispatch/admission-lp",
		"dispatch/ideal-attn-lp-128",
		"lp/solve-cold-20x12",
		"kvcache/alloc-extend-free",
		"kvcache/extend-handle",
		"metrics/summarize-3x-10k",
		"metrics/summaries-bulk-10k",
		"metrics/streaming-observe",
		"trace/append-1m",
		"trace/pool-contended-8",
		"metrics/recorder-append-1m",
	}
	if len(micros) != len(want) {
		t.Fatalf("got %d micro results want %d", len(micros), len(want))
	}
	for i, mb := range micros {
		if mb.Name != want[i] {
			t.Errorf("micro[%d] = %q want %q", i, mb.Name, want[i])
		}
		if mb.NsPerOp <= 0 {
			t.Errorf("%s: NsPerOp = %g", mb.Name, mb.NsPerOp)
		}
	}
}

// TestSamePairs pins the baseline comparability predicate.
func TestSamePairs(t *testing.T) {
	a := &Suite{Scenarios: []ScenarioBench{{Scenario: "steady", Engine: "hetis"}, {Scenario: "steady", Engine: "hexgen"}}}
	b := &Suite{Scenarios: []ScenarioBench{{Scenario: "steady", Engine: "hetis"}, {Scenario: "steady", Engine: "hexgen"}}}
	if !SamePairs(a, b) {
		t.Error("identical pair sets should compare equal")
	}
	b.Scenarios[1].Engine = "splitwise"
	if SamePairs(a, b) {
		t.Error("different engines must not compare equal")
	}
	if SamePairs(a, &Suite{}) || SamePairs(nil, b) {
		t.Error("size mismatch / nil must not compare equal")
	}
}

// TestSinkComparison checks the exact-vs-streaming section's structure:
// both modes measured on the same scenario and engine, identical event
// sequences, and the streaming side resident-memory no worse than exact.
func TestSinkComparison(t *testing.T) {
	rep, err := Run(Options{
		Scenarios:    []string{"steady"},
		Quick:        true,
		SkipMicro:    true,
		SkipFleet:    true,
		SinkScenario: "steady",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sinks) != 2 {
		t.Fatalf("want 2 sink measurements, got %d", len(rep.Sinks))
	}
	exact, stream := rep.Sinks[0], rep.Sinks[1]
	if exact.Sink != "exact" || stream.Sink != "streaming" {
		t.Fatalf("sink modes %q/%q, want exact/streaming", exact.Sink, stream.Sink)
	}
	if exact.Scenario != stream.Scenario || exact.Engine != stream.Engine {
		t.Errorf("sink comparison measured different runs: %+v vs %+v", exact, stream)
	}
	if exact.Events != stream.Events || exact.Completed != stream.Completed {
		t.Errorf("sink choice changed the simulation: %+v vs %+v", exact, stream)
	}
	if exact.WallSeconds <= 0 || stream.WallSeconds <= 0 {
		t.Errorf("empty wall measurements: %+v vs %+v", exact, stream)
	}
}

// TestFleetSection checks the shard-scaling section's structure on the
// cheap registered fleet scenario: one row per requested worker count,
// identical events and completions on every row (the determinism the
// section exists to prove), and speedups anchored at the 1-worker row.
func TestFleetSection(t *testing.T) {
	rep, err := Run(Options{
		Scenarios:     []string{"steady"},
		Quick:         true,
		SkipMicro:     true,
		SkipSinks:     true,
		FleetScenario: "fleet",
		FleetWorkers:  []int{1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.Fleet
	if fs == nil {
		t.Fatal("report has no fleet section")
	}
	if fs.Scenario != "fleet" || fs.Shards != 4 || fs.Policy != "affinity" {
		t.Fatalf("fleet section misdescribed: %+v", fs)
	}
	if len(fs.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(fs.Rows))
	}
	base := fs.Rows[0]
	if base.ShardWorkers != 1 || base.WallSeconds <= 0 || base.Events == 0 || base.Completed == 0 {
		t.Fatalf("empty 1-worker row: %+v", base)
	}
	if base.SpeedupVs1 != 1 {
		t.Errorf("1-worker speedup %g want exactly 1", base.SpeedupVs1)
	}
	for _, row := range fs.Rows[1:] {
		if row.Events != base.Events || row.Completed != base.Completed {
			t.Errorf("worker count changed the simulation: %+v vs %+v", row, base)
		}
		if row.SpeedupVs1 <= 0 {
			t.Errorf("row %d: speedup not computed: %+v", row.ShardWorkers, row)
		}
	}
	if rep.GoMaxProcs <= 0 {
		t.Errorf("report gomaxprocs = %d", rep.GoMaxProcs)
	}
}

// TestShardedScenarioRows pins the suite-row path for an explicitly named
// fleet scenario: the row must come from the fleet runner (shards and
// shard_workers recorded) and still carry real measurements.
func TestShardedScenarioRows(t *testing.T) {
	rep, err := Run(Options{
		Scenarios: []string{"fleet"},
		Quick:     true,
		SkipMicro: true,
		SkipSinks: true,
		SkipFleet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.ByName("fleet")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.WithDefaults().Engines); len(rep.Suite.Scenarios) != want {
		t.Fatalf("measured %d pairs want %d", len(rep.Suite.Scenarios), want)
	}
	for _, sb := range rep.Suite.Scenarios {
		if sb.Shards != 4 || sb.ShardWorkers < 1 {
			t.Errorf("%s/%s: fleet provenance missing: %+v", sb.Scenario, sb.Engine, sb)
		}
		if sb.WallSeconds <= 0 || sb.Events == 0 || sb.Completed == 0 {
			t.Errorf("%s/%s: empty measurement %+v", sb.Scenario, sb.Engine, sb)
		}
	}
}
