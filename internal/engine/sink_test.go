package engine

import (
	"fmt"
	"math"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// TestQueueReleasesPoppedRequests pins the queue's memory discipline: a
// popped slot must drop its *request pointer immediately (so served
// requests become collectable during long runs), and the ring must not
// grow beyond what peak occupancy requires — steady-state churn recycles
// slots instead of allocating.
func TestQueueReleasesPoppedRequests(t *testing.T) {
	var q queue
	const n = 1000
	for i := 0; i < n; i++ {
		q.push(&request{wl: workload.Request{ID: int64(i)}})
	}
	ringCap := len(q.ring)
	if ringCap < n || ringCap > 2*n {
		t.Fatalf("ring holding %d requests has %d slots", n, ringCap)
	}
	// Pop half and check every vacated slot dropped its pointer.
	for i := 0; i < 500; i++ {
		if r := q.pop(); r.wl.ID != int64(i) {
			t.Fatalf("pop %d returned request %d", i, r.wl.ID)
		}
	}
	for i := 0; i < 500; i++ {
		if q.ring[i] != nil {
			t.Fatalf("popped slot %d still pins its request", i)
		}
	}
	// Steady-state churn — including the pushFront requeues an eviction
	// storm produces — wraps around the ring without growing it.
	for i := 0; i < 3*n; i++ {
		q.pushFront(&request{wl: workload.Request{ID: int64(-1 - i)}})
		if r := q.pop(); r.wl.ID != int64(-1-i) {
			t.Fatalf("churn %d: pushFront/pop returned request %d", i, r.wl.ID)
		}
		q.push(&request{wl: workload.Request{ID: int64(n + i)}})
		if r := q.pop(); r == nil {
			t.Fatalf("churn %d: pop returned nil with %d queued", i, q.len())
		}
	}
	if len(q.ring) != ringCap {
		t.Fatalf("steady-state churn grew the ring: %d -> %d slots", ringCap, len(q.ring))
	}
	// Drain and verify every slot is released.
	for q.pop() != nil {
	}
	if q.pop() != nil {
		t.Fatal("drained queue still pops")
	}
	for i, r := range q.ring {
		if r != nil {
			t.Fatalf("drained ring slot %d still pins a request", i)
		}
	}
}

// engineSinkCases builds each engine once for a shared small trace.
func engineSinkCases(t *testing.T) ([]workload.Request, Config) {
	t.Helper()
	reqs := workload.Poisson(workload.ShareGPT, 4, 10, 1)
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	return reqs, cfg
}

// TestEnginesEmitThroughInjectedSink runs every engine twice on the same
// trace — default exact sink vs an injected StreamingSink — and checks the
// streaming run (a) bypasses the Recorder, (b) observes exactly the
// completed requests, and (c) agrees with the exact summaries within the
// sketch's documented 1% bound.
func TestEnginesEmitThroughInjectedSink(t *testing.T) {
	reqs, cfg := engineSinkCases(t)
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			exactEng, err := NewByName(name, cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := exactEng.Run(reqs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if exact.Recorder == nil || exact.Sink == nil {
				t.Fatal("default run must expose both Recorder and Sink")
			}
			if exact.Sink != metrics.Sink(exact.Recorder) {
				t.Fatal("default run's Sink must be its exact recorder")
			}

			scfg := cfg
			scfg.Sink = metrics.NewStreamingSink(metrics.SLOTarget{})
			scfg.NoTrace = true
			streamEng, err := NewByName(name, scfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := streamEng.Run(reqs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if stream.Recorder != nil {
				t.Error("streaming run must not materialize a Recorder")
			}
			if stream.Trace != nil {
				t.Error("NoTrace run must not hold a trace log")
			}
			got := stream.Sink.Snapshot()
			want := exact.Recorder.Snapshot()
			if got.Count != want.Count || got.Count != stream.Completed {
				t.Fatalf("streaming sink saw %d records, exact %d, completed %d", got.Count, want.Count, stream.Completed)
			}
			if stream.Completed != exact.Completed || stream.Events != exact.Events {
				t.Fatalf("sink choice changed the simulation: completed %d vs %d, events %d vs %d",
					stream.Completed, exact.Completed, stream.Events, exact.Events)
			}
			// Accuracy at scale is pinned elsewhere (the metrics property
			// tests and the megascale scale tests in internal/scenario); at this trace's ~40
			// completions the tail percentiles sit between sparse order
			// statistics, so only the medians and exact running stats are
			// meaningful here.
			for _, m := range []struct {
				name      string
				got, want metrics.Summary
			}{{"TTFT", got.TTFT, want.TTFT}, {"TPOT", got.TPOT, want.TPOT}, {"NormLat", got.NormLat, want.NormLat}} {
				if m.got.Min != m.want.Min || m.got.Max != m.want.Max || m.got.Count != m.want.Count {
					t.Errorf("%s running stats diverged: got %+v want %+v", m.name, m.got, m.want)
				}
				if w := m.want.Mean; w > 0 && math.Abs(m.got.Mean-w)/w > 1e-9 {
					t.Errorf("%s mean: streaming %g vs exact %g", m.name, m.got.Mean, w)
				}
				if w := m.want.P50; w > 0 {
					if e := math.Abs(m.got.P50-w) / w; e > 0.05 {
						t.Errorf("%s p50: streaming %g vs exact %g (rel err %.3f%%)", m.name, m.got.P50, w, 100*e)
					}
				}
			}
		})
	}
}

// TestSinkReuseAccumulates documents Config.Sink's per-run contract: the
// injected sink keeps accumulating across runs, which is exactly what a
// caller chaining traces into one aggregate wants — and what per-run
// tables must avoid by injecting a fresh sink.
func TestSinkReuseAccumulates(t *testing.T) {
	reqs, cfg := engineSinkCases(t)
	cfg.Sink = metrics.NewStreamingSink(metrics.SLOTarget{})
	eng, err := NewVLLM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := eng.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := eng.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Sink.Snapshot().Count; got != res1.Completed+res2.Completed {
		t.Fatalf("reused sink saw %d records, want %d", got, res1.Completed+res2.Completed)
	}
}

// ExampleConfig_sink shows the injection point.
func ExampleConfig_sink() {
	reqs := workload.Poisson(workload.HumanEval, 2, 5, 1)
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	cfg.Sink = metrics.NewStreamingSink(metrics.SLOTarget{TTFT: 1.5, TPOT: 0.1})
	cfg.NoTrace = true
	eng, _ := NewVLLM(cfg)
	res, _ := eng.Run(reqs, 0)
	snap := res.Sink.Snapshot()
	fmt.Println(snap.Count == res.Completed)
	// Output: true
}
