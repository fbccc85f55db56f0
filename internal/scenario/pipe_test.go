package scenario

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"hetis/internal/engine"
	"hetis/internal/workload"
)

// pipeTestRecords is how many records each forced-on differential run
// must feed its Pipe: two of the Pipe's 512-record chunks. A Pipe hands
// every full chunk to its consumer goroutine (the metrics tests pin that),
// so such a run exercises the goroutine instead of feeding every record
// at Drain.
const pipeTestRecords = 1024

// TestPipelinedStreamMatchesSync is the differential for the pipelined
// sinks: every registered unsharded scenario, healthy and chaotic, on
// every engine, streamed with and without a windowed series, renders the
// same rows and windows with the Pipe forced on as with it forced off. The
// golden traces are lengthened until they hold pipeTestRecords requests,
// and each forced-on run must observe that many records, since a run
// shorter than one chunk never reaches the goroutine. Before
// that, on the run path alone: no Pipe goroutine outlives FleetRun.Run,
// whether the engine succeeds or fails.
func TestPipelinedStreamMatchesSync(t *testing.T) {
	spec, err := ByName("megascale")
	if err != nil {
		t.Fatal(err)
	}
	spec = lengthened(t, spec.ForGolden(), pipeTestRecords)
	t.Run("no goroutine left", func(t *testing.T) {
		base := runtime.NumGoroutine()
		fr, err := PrepareFleet(spec, "vllm", Options{Stream: true, pipe: pipeOn})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Run(0); err != nil {
			t.Fatal(err)
		}
		if n := observed(fr); n < pipeTestRecords {
			t.Fatalf("the run fed its Pipe %d records, want at least %d", n, pipeTestRecords)
		}
		waitGoroutines(t, base)
	})
	t.Run("no goroutine left after an engine error", func(t *testing.T) {
		base := runtime.NumGoroutine()
		build := func(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error) {
			eng, err := engine.NewByName(name, cfg, reqs)
			return failingEngine{eng}, err
		}
		fr, err := PrepareFleet(spec, "vllm", Options{Stream: true, Build: build, pipe: pipeOn})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Run(0); !errors.Is(err, errMidRun) {
			t.Fatalf("Run error %v, want the engine's %v", err, errMidRun)
		}
		if n := observed(fr); n < pipeTestRecords {
			t.Fatalf("the failing engine fed its Pipe %d records, want at least %d", n, pipeTestRecords)
		}
		waitGoroutines(t, base)
	})

	modes := []struct {
		name string
		opts Options
	}{
		{"stream", Options{Stream: true}},
		{"windows", Options{Stream: true, Window: 30}},
	}
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Sharded() {
			continue
		}
		spec = lengthened(t, spec.ForGolden(), pipeTestRecords)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, eng := range spec.WithDefaults().Engines {
				for _, m := range modes {
					on, off := m.opts, m.opts
					on.pipe, off.pipe = pipeOn, pipeOff
					gotRows, gotWins, n := runPiped(t, spec, eng, on)
					wantRows, wantWins, _ := runPiped(t, spec, eng, off)
					if n < pipeTestRecords {
						t.Errorf("%s/%s: the forced-on run fed its Pipe %d records, want at least %d", eng, m.name, n, pipeTestRecords)
					}
					if gotRows != wantRows {
						t.Errorf("%s/%s: pipelined rows differ:\n%s", eng, m.name, diffLines([]byte(wantRows), []byte(gotRows)))
					}
					if gotWins != wantWins {
						t.Errorf("%s/%s: pipelined windows differ:\n%s", eng, m.name, diffLines([]byte(wantWins), []byte(gotWins)))
					}
				}
			}
		})
	}
}

// runPiped serves spec on one engine and returns its rows and windows as
// CSV, with the records its sinks observed.
func runPiped(t *testing.T, spec Spec, eng string, opts Options) (rows, wins string, records int) {
	t.Helper()
	fr, err := PrepareFleet(spec, eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Run(0); err != nil {
		t.Fatal(err)
	}
	records = observed(fr)
	r, w, err := fr.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		wins = w.CSV()
	}
	return r.CSV(), wins, records
}

// observed counts the records an unsharded streaming run's sinks took in,
// dropped ones included; after Run it is what the engine fed its Pipe.
func observed(fr *FleetRun) int {
	s := fr.pipeline.agg.Snapshot()
	return s.Count + s.Dropped
}

// lengthened returns spec with defaults filled and its duration doubled
// until its trace holds at least n requests.
func lengthened(t *testing.T, spec Spec, n int) Spec {
	t.Helper()
	spec = Prepare(spec, false)
	for {
		reqs, err := spec.Trace()
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) >= n {
			return spec
		}
		spec.Duration *= 2
	}
}

var errMidRun = errors.New("engine failed mid-run")

// failingEngine serves the trace, so records flow through the sinks, then
// fails the run.
type failingEngine struct{ engine.Engine }

func (e failingEngine) Run(reqs []workload.Request, horizon float64) (*engine.Result, error) {
	if _, err := e.Engine.Run(reqs, horizon); err != nil {
		return nil, err
	}
	return nil, errMidRun
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within a second: an exiting goroutine can outlast the channel
// operation that released it by a scheduling quantum, so one read races.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
