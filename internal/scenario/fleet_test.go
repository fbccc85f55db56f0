package scenario

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"hetis/internal/fleet"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// fleetTestSpec is a small sharded multi-tenant scenario on the cheap vllm
// engine — fast enough to run many times under the determinism battery.
func fleetTestSpec(policy string) Spec {
	return Spec{
		Name:        "fleet-battery",
		Description: "determinism battery fixture",
		Traffic:     Traffic{Kind: KindPoisson, Rate: 6},
		Mix: []workload.MixEntry{
			{Tenant: "chat", Dataset: workload.ShareGPT, Weight: 3},
			{Tenant: "code", Dataset: workload.HumanEval, Weight: 1},
		},
		Engines:  []string{"vllm"},
		Duration: 20,
		Fleet:    &FleetSpec{Shards: 4, Policy: policy},
	}
}

// runFleetCSV runs spec on one engine and returns the row table (and the
// windowed table, when streaming with a window) as CSV.
func runFleetCSV(t *testing.T, spec Spec, engineName string, opts Options) (string, string) {
	t.Helper()
	rows, wins, err := RunEngineSink(spec, engineName, opts)
	if err != nil {
		t.Fatal(err)
	}
	var w string
	if wins != nil {
		w = wins.CSV()
	}
	return rows.CSV(), w
}

// The tentpole contract: merged output is byte-identical at any
// shard-worker count and any GOMAXPROCS, on both the exact and streaming
// measurement paths, for every routing policy.
func TestFleetDeterministicAcrossWorkersAndProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, policy := range []string{"weighted", "least-loaded", "affinity"} {
		spec := fleetTestSpec(policy)
		for _, stream := range []bool{false, true} {
			opts := Options{Stream: stream, ShardWorkers: 1}
			if stream {
				opts.Window = 5
			}
			runtime.GOMAXPROCS(1)
			refRows, refWins := runFleetCSV(t, spec, spec.Engines[0], opts)
			if !strings.Contains(refRows, spec.Name) {
				t.Fatalf("%s: reference CSV has no scenario rows:\n%s", policy, refRows)
			}
			for _, procs := range []int{1, 2} {
				for _, workers := range []int{1, 4, 8} {
					runtime.GOMAXPROCS(procs)
					opts.ShardWorkers = workers
					rows, wins := runFleetCSV(t, spec, spec.Engines[0], opts)
					if rows != refRows {
						t.Errorf("%s stream=%v: CSV differs at shard-workers=%d GOMAXPROCS=%d", policy, stream, workers, procs)
					}
					if wins != refWins {
						t.Errorf("%s stream=%v: windowed CSV differs at shard-workers=%d GOMAXPROCS=%d", policy, stream, workers, procs)
					}
				}
			}
		}
	}
}

// The fleet must conserve the offered trace — completed + dropped + queued
// sums to the request count, exactly as single-cluster runs promise — and
// the merged exact-path artifacts (recorder, time-ordered trace) must
// cover every shard.
func TestFleetConservation(t *testing.T) {
	spec := Prepare(fleetTestSpec("least-loaded"), false)
	fr, err := PrepareFleet(spec, "vllm", Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	offered := len(reqs)
	if fr.offered != offered {
		t.Fatalf("FleetRun counts %d offered requests, the trace holds %d", fr.offered, offered)
	}
	res, err := fr.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Dropped+res.Queued != offered {
		t.Fatalf("conservation broken: %d completed + %d dropped + %d queued != %d offered",
			res.Completed, res.Dropped, res.Queued, offered)
	}
	if got := res.Recorder.Count(); got != res.Completed+res.Dropped {
		t.Fatalf("merged recorder holds %d records, result counts %d", got, res.Completed+res.Dropped)
	}
	if res.Events == 0 || res.Horizon <= 0 {
		t.Fatalf("merged result missing event/horizon accounting: events=%d horizon=%g", res.Events, res.Horizon)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("exact fleet run produced no merged trace")
	}
	last := -1.0
	res.Trace.Each(func(ev trace.Event) bool {
		if ev.At < last {
			t.Fatalf("merged trace out of order: %g after %g", ev.At, last)
		}
		last = ev.At
		return true
	})
}

// A FleetRun is single-use; a second Run must refuse rather than silently
// double-accumulate streaming sinks.
func TestFleetRunSingleUse(t *testing.T) {
	fr, err := PrepareFleet(fleetTestSpec("weighted"), "vllm", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Run(1); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Run(1); err == nil {
		t.Fatal("second Run should fail")
	}
}

// Fleet excludes chaos fields and unknown policies at validation time.
func TestFleetValidation(t *testing.T) {
	spec := fleetTestSpec("weighted")
	spec.Replicas = 2
	if err := spec.Validate(); err == nil {
		t.Fatal("fleet + chaos should fail validation")
	}
	bad := fleetTestSpec("no-such-policy")
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown routing policy should fail validation")
	}
	for _, policy := range fleet.Policies() {
		for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
			spec := fleetTestSpec(policy)
			spec.Fleet.Weights = []float64{1, 1, w, 1}
			err := spec.Validate()
			if err == nil {
				t.Errorf("%s: weight %g on shard 2 passed validation", policy, w)
			} else if !strings.Contains(err.Error(), "shard 2") {
				t.Errorf("%s: weight %g: error %q does not name shard 2", policy, w, err)
			}
		}
	}
}

// A shard whose sink cannot merge with shard 0's is an error from Run that
// names the scenario, engine and shard, not a panic.
func TestFleetMergeMismatchIsError(t *testing.T) {
	fr, err := PrepareFleet(fleetTestSpec("weighted"), "vllm", Options{Quick: true, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 2's merge-time sink gains a windowed series the others lack,
	// so the Tee arities differ.
	fr.shards[2].pipeline = newStreamPipeline(fr.Spec.SLO, 5, fr.offeredBy, nil)
	_, err = fr.Run(1)
	if err == nil {
		t.Fatal("mismatched shard sink merged without error")
	}
	for _, want := range []string{"fleet-battery", "vllm", "shard 2/4", "merging sink"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

// Affinity routing with a single-tenant trace starves all but one shard;
// the run must still work and still merge deterministically.
func TestFleetToleratesEmptyShards(t *testing.T) {
	spec := fleetTestSpec("affinity")
	spec.Mix = nil // single-tenant: every request carries tenant ""
	a, _ := runFleetCSV(t, spec, spec.Engines[0], Options{ShardWorkers: 1})
	b, _ := runFleetCSV(t, spec, spec.Engines[0], Options{ShardWorkers: 4})
	if a != b {
		t.Fatal("empty-shard fleet run not deterministic across worker counts")
	}
	sa, _ := runFleetCSV(t, spec, spec.Engines[0], Options{Stream: true, ShardWorkers: 1})
	sb, _ := runFleetCSV(t, spec, spec.Engines[0], Options{Stream: true, ShardWorkers: 4})
	if sa != sb {
		t.Fatal("empty-shard streaming fleet run not deterministic across worker counts")
	}
}

// Streaming and exact fleet paths must agree on the count-valued columns
// (scenario, engine, tenant, offered, completed) — only latency summaries
// may differ, within the sketch's relative-error bound.
func TestFleetStreamMatchesExactCounts(t *testing.T) {
	spec := fleetTestSpec("least-loaded")
	exact, _ := runFleetCSV(t, spec, spec.Engines[0], Options{})
	stream, _ := runFleetCSV(t, spec, spec.Engines[0], Options{Stream: true})
	exactLines := strings.Split(strings.TrimSpace(exact), "\n")
	streamLines := strings.Split(strings.TrimSpace(stream), "\n")
	if len(exactLines) != len(streamLines) {
		t.Fatalf("row count differs: exact %d, stream %d", len(exactLines), len(streamLines))
	}
	for i := range exactLines {
		e := strings.Split(exactLines[i], ",")
		s := strings.Split(streamLines[i], ",")
		for c := 0; c < 5 && c < len(e); c++ {
			if e[c] != s[c] {
				t.Fatalf("row %d column %d: exact %q vs stream %q", i, c, e[c], s[c])
			}
		}
	}
}

// TestOneShardFleetMatchesUnsharded is the first metamorphic check of the
// fleet layer: a one-shard fleet routes the whole trace to one replica, so
// for every registered healthy, unsharded scenario and engine it must
// render exactly what the spec without a Fleet renders — exact, streaming,
// and streaming with windowed series.
func TestOneShardFleetMatchesUnsharded(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"exact", Options{}},
		{"stream", Options{Stream: true}},
		{"windows", Options{Stream: true, Window: 30}},
	}
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Chaotic() || spec.Sharded() {
			continue
		}
		spec = spec.ForGolden()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sharded := spec
			sharded.Fleet = &FleetSpec{Shards: 1}
			for _, eng := range spec.WithDefaults().Engines {
				for _, m := range modes {
					wantRows, wantWins := runFleetCSV(t, spec, eng, m.opts)
					gotRows, gotWins := runFleetCSV(t, sharded, eng, m.opts)
					if gotRows != wantRows {
						t.Errorf("%s/%s: one-shard rows differ:\n%s", eng, m.name, diffLines([]byte(wantRows), []byte(gotRows)))
					}
					if gotWins != wantWins {
						t.Errorf("%s/%s: one-shard windows differ:\n%s", eng, m.name, diffLines([]byte(wantWins), []byte(gotWins)))
					}
				}
			}
		})
	}
}
