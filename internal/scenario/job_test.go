package scenario

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hetis/internal/engine"
	"hetis/internal/model"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// TestJobMatchesPrepareFleet guards that Job and PrepareFleet are one run
// path: serving a healthy, unsharded scenario's own trace through a Job
// gives the same records, table and trace JSONL as PrepareFleet on the
// spec, exact and streaming. The job's builder installs the sink
// PrepareFleet would, and its result is rendered by the same row writer.
func TestJobMatchesPrepareFleet(t *testing.T) {
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Chaotic() || spec.Sharded() {
			continue
		}
		spec = Prepare(spec.ForGolden(), false)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			reqs, err := spec.Trace()
			if err != nil {
				t.Fatal(err)
			}
			m, err := model.ByName(spec.Model)
			if err != nil {
				t.Fatal(err)
			}
			cluster, err := ClusterByName(spec.Cluster)
			if err != nil {
				t.Fatal(err)
			}
			offeredBy := map[string]int{}
			countTenants(offeredBy, reqs)
			for _, eng := range spec.Engines {
				for _, stream := range []bool{false, true} {
					fr, err := PrepareFleet(spec, eng, Options{Stream: stream})
					if err != nil {
						t.Fatal(err)
					}
					want, err := fr.Run(1)
					if err != nil {
						t.Fatal(err)
					}
					wantRows, _, err := fr.Tables()
					if err != nil {
						t.Fatal(err)
					}

					view := &FleetRun{Spec: spec, EngineName: eng, offered: len(reqs), offeredBy: offeredBy,
						tenants: multiTenant(offeredBy), streaming: stream}
					job := Job{Model: m, Cluster: cluster, Engine: eng, Trace: reqs, Horizon: MeasurementHorizon(spec.Duration),
						Build: func(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error) {
							if stream {
								view.pipeline = newStreamPipeline(spec.SLO, 0, offeredBy, nil)
								cfg.Sink, cfg.NoTrace = view.pipeline.sink, true
							}
							return engine.NewByName(name, cfg, reqs)
						}}
					got, err := job.Run()
					if err != nil {
						t.Fatal(err)
					}
					view.merged = got
					gotRows, _, err := view.Tables()
					if err != nil {
						t.Fatal(err)
					}

					where := fmt.Sprintf("%s stream=%v", eng, stream)
					if g, w := gotRows.CSV(), wantRows.CSV(); g != w {
						t.Errorf("%s: job table differs:\n%s", where, diffLines([]byte(w), []byte(g)))
					}
					if g, w := fmt.Sprint(got.Sink.Snapshot()), fmt.Sprint(want.Sink.Snapshot()); g != w {
						t.Errorf("%s: job snapshot %s, PrepareFleet %s", where, g, w)
					}
					if got.Completed != want.Completed || got.Events != want.Events || got.Horizon != want.Horizon {
						t.Errorf("%s: job ran %d completed / %d events to %g s, PrepareFleet %d / %d to %g s",
							where, got.Completed, got.Events, got.Horizon, want.Completed, want.Events, want.Horizon)
					}
					if stream {
						continue
					}
					if g, w := fmt.Sprint(got.Recorder.Records()), fmt.Sprint(want.Recorder.Records()); g != w {
						t.Errorf("%s: job records differ from PrepareFleet's", where)
					}
					if g, w := jsonl(t, got.Trace), jsonl(t, want.Trace); !bytes.Equal(g, w) {
						t.Errorf("%s: job trace JSONL differs:\n%s", where, diffLines(w, g))
					}
				}
			}
		})
	}
}

// TestUnsortedTraceMatchesSorted drives the engines' unsorted-trace
// arrival path: a scenario's trace, shuffled and with exact arrival ties
// forced, served through a Job on every engine gives the same trace JSONL
// and records as its stably sorted copy, so requests that arrive together
// keep their trace order. The shuffled trace itself is left as it was.
func TestUnsortedTraceMatchesSorted(t *testing.T) {
	for _, name := range []string{"multitenant", "bursty", "steady"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec = Prepare(spec.ForGolden(), false)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			reqs, err := spec.Trace()
			if err != nil {
				t.Fatal(err)
			}
			m, err := model.ByName(spec.Model)
			if err != nil {
				t.Fatal(err)
			}
			cluster, err := ClusterByName(spec.Cluster)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(spec.Seed))
			rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
			// Every fourth request arrives exactly with an earlier one in
			// trace order, so the stable sort has ties to keep.
			for i := 4; i < len(reqs); i += 4 {
				reqs[i].ArrivalAt = reqs[rng.Intn(i)].ArrivalAt
			}
			byArrival := func(a, b workload.Request) int { return cmp.Compare(a.ArrivalAt, b.ArrivalAt) }
			if slices.IsSortedFunc(reqs, byArrival) {
				t.Fatal("the shuffled trace is sorted; the test would not drive the unsorted path")
			}
			shuffled := slices.Clone(reqs)
			sorted := slices.Clone(reqs)
			slices.SortStableFunc(sorted, byArrival)
			for _, eng := range engine.Names {
				run := func(trace []workload.Request) *engine.Result {
					res, err := Job{Model: m, Cluster: cluster, Engine: eng, Trace: trace, Horizon: MeasurementHorizon(spec.Duration)}.Run()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				got, want := run(reqs), run(sorted)
				if len(want.Recorder.Records()) == 0 {
					t.Fatalf("%s: the sorted trace completed nothing", eng)
				}
				if !slices.Equal(reqs, shuffled) {
					t.Fatalf("%s: serving the shuffled trace reordered it", eng)
				}
				if g, w := fmt.Sprint(got.Recorder.Records()), fmt.Sprint(want.Recorder.Records()); g != w {
					t.Errorf("%s: shuffled-trace records differ from the sorted trace's", eng)
				}
				if g, w := jsonl(t, got.Trace), jsonl(t, want.Trace); !bytes.Equal(g, w) {
					t.Errorf("%s: shuffled-trace JSONL differs:\n%s", eng, diffLines(w, g))
				}
			}
		})
	}
}

// jsonl renders a trace log as JSONL.
func jsonl(t *testing.T, log *trace.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
