package scenario_test

import (
	"math"
	"runtime"
	"testing"

	"hetis/internal/engine"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/scenario"
)

// megascaleRun serves the megascale scenario at a reduced duration through
// the given sink, returning the result, the run's allocs/event and the
// bytes Run allocates per offered request. The
// scenario's own shape (diurnal wave, code-completion mix, vllm) is kept;
// only the duration — and therefore the trace length — scales.
func megascaleRun(t *testing.T, duration float64, sink metrics.Sink) (*engine.Result, float64, float64) {
	t.Helper()
	spec, err := scenario.ByName("megascale")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.WithDefaults()
	spec.Duration = duration
	reqs, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.ByName(spec.Model)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := scenario.ClusterByName(spec.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig(m, cluster)
	cfg.Sink = sink
	if sink != nil {
		cfg.NoTrace = true
	}
	eng, err := engine.NewByName(spec.Engines[0], cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := eng.Run(reqs, scenario.MeasurementHorizon(spec.Duration))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(reqs) {
		t.Fatalf("megascale at duration %g completed %d/%d", duration, res.Completed, len(reqs))
	}
	return res, float64(after.Mallocs-before.Mallocs) / float64(res.Events),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reqs))
}

// TestMegascaleStreamingFlatAllocs is the O(1)-memory assertion:
// quadrupling the megascale trace must not grow the streaming sink's
// allocs/event (flat within noise), and the absolute rate must stay under
// a pinned budget, so a regression that reintroduces per-request
// measurement allocation fails here before it lands.
func TestMegascaleStreamingFlatAllocs(t *testing.T) {
	slo := metrics.SLOTarget{TTFT: 1.5, TPOT: 0.1}
	_, small, _ := megascaleRun(t, 1500, metrics.NewStreamingSink(slo))
	_, large, perReq := megascaleRun(t, 6000, metrics.NewStreamingSink(slo))
	t.Logf("allocs/event: %.2f at 1500s, %.2f at 6000s; %.0f B allocated per offered request at 6000s", small, large, perReq)
	if large > small*1.3 {
		t.Errorf("allocs/event grew with trace length: %.2f -> %.2f (4x trace)", small, large)
	}
	// The pinned budget: the decode loop itself runs ~5 allocs/event; the
	// streaming sink must stay amortized-O(1) on top of that.
	const budget = 10.0
	if large > budget {
		t.Errorf("allocs/event %.2f exceeds the pinned budget %.1f", large, budget)
	}
	// Run serves the caller's trace in place, clamping each request as it
	// is admitted, recycles a finished request's state into a later
	// arrival, and, untraced, keeps no per-iteration §7.3 series, so the
	// run itself allocates about 3 B per offered request. Keeping the
	// series (about 32 B in all), a whole-trace copy (one 48 B
	// workload.Request per offered request) or a fresh 104 B request per
	// arrival breaks this budget.
	const bytesPerRequest = 8.0
	if perReq > bytesPerRequest {
		t.Errorf("Run allocated %.0f B per offered request, over the %.0f B budget (does it copy the trace?)", perReq, bytesPerRequest)
	}
}

// liveHeap is the live heap after a forced GC.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestMegascaleStreamingAccuracy is the acceptance bound at scale: on a
// >100k-request slice of megascale, streaming p50/p95/p99 of all three
// latency metrics must land within 1% relative error of the exact
// summaries. The sink choice must not change the simulation (equal
// events and completions), and what the streaming run keeps resident
// once it is over must stay under a twentieth of what the exact run
// keeps: exact holds every record, the event trace and the §7.3 series,
// streaming only its sketches.
func TestMegascaleStreamingAccuracy(t *testing.T) {
	slo := metrics.SLOTarget{TTFT: 1.5, TPOT: 0.1}
	sink := metrics.NewStreamingSink(slo)
	base := liveHeap()
	streamRes, _, _ := megascaleRun(t, 6000, sink)
	streamHeap := liveHeap() - base
	base = liveHeap()
	exactRes, _, _ := megascaleRun(t, 6000, nil)
	exactHeap := liveHeap() - base
	runtime.KeepAlive(streamRes)

	if streamRes.Events != exactRes.Events || streamRes.Completed != exactRes.Completed {
		t.Errorf("sink choice changed the simulation: streaming %d events/%d completed, exact %d/%d",
			streamRes.Events, streamRes.Completed, exactRes.Events, exactRes.Completed)
	}
	t.Logf("retained live heap: streaming %.1f MB, exact %.1f MB", float64(streamHeap)/1e6, float64(exactHeap)/1e6)
	if 20*streamHeap >= exactHeap {
		t.Errorf("streaming run retains %d B, not under a twentieth of exact's %d B", streamHeap, exactHeap)
	}

	got := sink.Snapshot()
	want := exactRes.Recorder.Snapshot()
	if got.Count != want.Count {
		t.Fatalf("streaming observed %d records, exact %d", got.Count, want.Count)
	}
	for _, m := range []struct {
		name      string
		got, want metrics.Summary
	}{{"TTFT", got.TTFT, want.TTFT}, {"TPOT", got.TPOT, want.TPOT}, {"NormLat", got.NormLat, want.NormLat}} {
		for _, p := range []struct {
			name      string
			got, want float64
		}{{"p50", m.got.P50, m.want.P50}, {"p95", m.got.P95, m.want.P95}, {"p99", m.got.P99, m.want.P99}} {
			if p.want <= 0 {
				continue
			}
			if e := math.Abs(p.got-p.want) / p.want; e > 0.01 {
				t.Errorf("%s %s: streaming %.6g vs exact %.6g (rel err %.3f%% > 1%%)",
					m.name, p.name, p.got, p.want, 100*e)
			}
		}
	}
}

// TestSinkComparison serves quick steady on every engine through the
// exact recorder with the event trace and through the streaming sink
// untraced: the sink choice must not change the simulation (equal events
// and completions), both sinks must observe every completed request, and
// only the traced run keeps the per-iteration series: the §7.3 module
// series on every engine, and Hetis's per-device samples.
func TestSinkComparison(t *testing.T) {
	spec, err := scenario.ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	spec = scenario.Prepare(spec, true)
	reqs, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.ByName(spec.Model)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := scenario.ClusterByName(spec.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range engine.Names {
		t.Run(name, func(t *testing.T) {
			run := func(sink metrics.Sink) *engine.Result {
				cfg := engine.DefaultConfig(m, cluster)
				cfg.Sink = sink
				cfg.NoTrace = sink != nil
				eng, err := engine.NewByName(name, cfg, reqs)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(reqs, scenario.MeasurementHorizon(spec.Duration))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sink := metrics.NewStreamingSink(spec.SLO)
			stream := run(sink)
			exact := run(nil)

			if exact.Completed == 0 {
				t.Fatal("quick steady completed no requests")
			}
			if stream.Events != exact.Events || stream.Completed != exact.Completed {
				t.Errorf("sink choice changed the simulation: streaming %d events/%d completed, exact %d/%d",
					stream.Events, stream.Completed, exact.Events, exact.Completed)
			}
			if got, want := sink.Snapshot().Count, exact.Recorder.Snapshot().Count; got != want || want != exact.Completed {
				t.Errorf("streaming observed %d records, exact %d, completed %d", got, want, exact.Completed)
			}
			if stream.DenseTimes.Len() != 0 || stream.AttnTimes.Len() != 0 || stream.HeadSeries != nil || stream.CacheSeries != nil {
				t.Errorf("untraced run kept series: %d dense, %d attention, %d head, %d cache",
					stream.DenseTimes.Len(), stream.AttnTimes.Len(), len(stream.HeadSeries), len(stream.CacheSeries))
			}
			if exact.DenseTimes.Len() == 0 || exact.AttnTimes.Len() == 0 {
				t.Errorf("traced run kept %d dense and %d attention samples, want both filled",
					exact.DenseTimes.Len(), exact.AttnTimes.Len())
			}
			if sampled := len(exact.HeadSeries) > 0 && len(exact.CacheSeries) > 0; sampled != (name == "hetis") {
				t.Errorf("traced run kept %d head and %d cache series; only hetis samples devices",
					len(exact.HeadSeries), len(exact.CacheSeries))
			}
		})
	}
}

// TestGigascaleFleetWorkerCounts pins the sharded fleet's scaling facts
// on quick gigascale, streamed: serving the eight shards serially or four
// at a time executes the same events and completes and drops the same
// requests, and what the run keeps resident once it is over (streaming
// sinks plus the merged result) stays within a fixed budget. A retained
// trace or engine would cost hundreds of MB at this scale.
func TestGigascaleFleetWorkerCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("2.5M requests per run: too slow under the race detector")
	}
	spec, err := scenario.ByName("gigascale")
	if err != nil {
		t.Fatal(err)
	}
	engName := spec.WithDefaults().Engines[0]
	const budget = 64 << 20
	var first *engine.Result
	for _, workers := range []int{1, 4} {
		fr, err := scenario.PrepareFleet(spec, engName, scenario.Options{Quick: true, Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		base := liveHeap()
		res, err := fr.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		// fr holds the routed trace, which is in the baseline: keep it
		// reachable so the delta is the run's residue alone.
		live := liveHeap() - base
		runtime.KeepAlive(fr)
		t.Logf("%d shard workers: %d events, %d completed, %d dropped, retained live heap %.1f MB",
			workers, res.Events, res.Completed, res.Dropped, float64(live)/1e6)
		if live >= budget {
			t.Errorf("%d shard workers: run retains %d B, over the %d B budget", workers, live, budget)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Events != first.Events || res.Completed != first.Completed || res.Dropped != first.Dropped {
			t.Errorf("%d shard workers changed the simulation: %d events/%d completed/%d dropped, serial %d/%d/%d",
				workers, res.Events, res.Completed, res.Dropped, first.Events, first.Completed, first.Dropped)
		}
	}
}
