package engine

import (
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// buildHetis constructs the Hetis engine on the paper cluster.
func buildHetis(t *testing.T, m model.Config, reqs []workload.Request) *Hetis {
	t.Helper()
	cfg := DefaultConfig(m, hardware.PaperCluster())
	plan, err := PlanForWorkload(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHetis(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func shortTrace(dist workload.LengthDist, rate, dur float64, seed int64) []workload.Request {
	return workload.Poisson(dist, rate, dur, seed)
}

func TestHetisCompletesAllRequests(t *testing.T) {
	reqs := shortTrace(workload.HumanEval, 4, 20, 1)
	h := buildHetis(t, model.Llama13B, reqs)
	res, err := h.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d requests", res.Completed, len(reqs))
	}
	if res.Recorder.Count() != len(reqs) {
		t.Fatalf("recorder holds %d records, want %d", res.Recorder.Count(), len(reqs))
	}
	for _, r := range res.Recorder.Records() {
		if r.TTFT() <= 0 {
			t.Fatalf("request %d has non-positive TTFT %g", r.ID, r.TTFT())
		}
		if r.FinishedAt < r.FirstToken {
			t.Fatalf("request %d finished before first token", r.ID)
		}
	}
}

func TestHetisDeterministic(t *testing.T) {
	reqs := shortTrace(workload.ShareGPT, 2, 15, 7)
	h1 := buildHetis(t, model.Llama13B, reqs)
	r1, err := h1.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2 := buildHetis(t, model.Llama13B, reqs)
	r2, err := h2.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Completed != r2.Completed || r1.Horizon != r2.Horizon {
		t.Fatalf("non-deterministic: %d@%g vs %d@%g", r1.Completed, r1.Horizon, r2.Completed, r2.Horizon)
	}
	s1 := r1.Recorder.Snapshot().NormLat
	s2 := r2.Recorder.Snapshot().NormLat
	if s1.Mean != s2.Mean || s1.P95 != s2.P95 {
		t.Fatalf("latency summaries differ: %+v vs %+v", s1, s2)
	}
}

func TestBaselinesComplete(t *testing.T) {
	reqs := shortTrace(workload.HumanEval, 4, 20, 2)
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())

	hx, err := NewHexGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resH, err := hx.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resH.Completed != len(reqs) {
		t.Errorf("hexgen completed %d of %d", resH.Completed, len(reqs))
	}

	sw, err := NewSplitwise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := sw.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resS.Completed != len(reqs) {
		t.Errorf("splitwise completed %d of %d", resS.Completed, len(reqs))
	}
	// Splitwise must have paid one cache handoff per decoded request.
	if resS.Migrations == 0 {
		t.Error("splitwise ran without any KV handoffs")
	}
}

func TestCacheCapacityOrderingFig11(t *testing.T) {
	// Fig. 11: Hetis provides the largest KV space, up to 1.87x more;
	// Splitwise the least (two full model copies).
	for _, m := range []model.Config{model.Llama13B, model.OPT30B, model.Llama70B} {
		cfg := DefaultConfig(m, hardware.PaperCluster())
		plan, err := PlanForWorkload(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		het, err := NewHetis(cfg, plan)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		hx, err := NewHexGen(cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		sw, err := NewSplitwise(cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		ch, cx, cs := het.CacheCapacity(), hx.CacheCapacity(), sw.CacheCapacity()
		t.Logf("%s cache: hetis %.0fGB, hexgen %.0fGB, splitwise %.0fGB",
			m.Name, float64(ch)/1e9, float64(cx)/1e9, float64(cs)/1e9)
		if ch <= cx {
			t.Errorf("%s: hetis cache (%d) should exceed hexgen (%d)", m.Name, ch, cx)
		}
		if cx <= cs {
			t.Errorf("%s: hexgen cache (%d) should exceed splitwise (%d)", m.Name, cx, cs)
		}
	}
}

func TestHexGenStagesMatchPaperLayout(t *testing.T) {
	cfg := DefaultConfig(model.Llama70B, hardware.PaperCluster())
	hx, err := NewHexGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stages := hx.Stages()
	// §7.2: four stages of homogeneous GPUs (A100s, 3090s, 3090s, P100s).
	if len(stages) != 4 {
		t.Fatalf("hexgen has %d stages, want 4: %+v", len(stages), stages)
	}
	names := []string{stages[0].Spec.Name, stages[1].Spec.Name, stages[2].Spec.Name, stages[3].Spec.Name}
	want := []string{"A100", "3090", "3090", "P100"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stage order %v, want %v", names, want)
		}
	}
	// A100 stage must hold the most layers (asymmetric split).
	if stages[0].Layers <= stages[3].Layers {
		t.Errorf("A100 stage has %d layers, P100 stage %d; want asymmetric", stages[0].Layers, stages[3].Layers)
	}
	total := 0
	for _, s := range stages {
		total += s.Layers
	}
	if total != model.Llama70B.Layers {
		t.Fatalf("stages hold %d layers, want %d", total, model.Llama70B.Layers)
	}
}

func TestSplitwisePhaseSplit(t *testing.T) {
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	sw, err := NewSplitwise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Prefill side should be A100-only for a 13B model.
	for _, st := range sw.PrefillStages() {
		if st.Spec.Name != "A100" {
			t.Errorf("prefill stage on %s, want A100", st.Spec.Name)
		}
	}
	// Decode side must not contain any prefill device.
	prefillDevs := map[hardware.DeviceID]bool{}
	for _, st := range sw.PrefillStages() {
		for _, id := range st.Devices {
			prefillDevs[id] = true
		}
	}
	for _, st := range sw.DecodeStages() {
		for _, id := range st.Devices {
			if prefillDevs[id] {
				t.Errorf("device %d serves both phases", id)
			}
		}
	}
}

func TestSplitwiseLlama70BStillConstructs(t *testing.T) {
	// Llama-70B weights do not fit on 3090s+P100s alone; the planner must
	// shift A100s to the decode side rather than fail.
	cfg := DefaultConfig(model.Llama70B, hardware.PaperCluster())
	sw, err := NewSplitwise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.PrefillStages()) == 0 || len(sw.DecodeStages()) == 0 {
		t.Fatal("both phases need devices")
	}
}

func TestHetisBeatsBaselinesUnderLoad(t *testing.T) {
	// The headline result (Figs. 8-10): at a rate that pressures the
	// baselines, Hetis sustains lower normalized latency.
	reqs := shortTrace(workload.ShareGPT, 6, 30, 3)
	m := model.Llama13B
	cfg := DefaultConfig(m, hardware.PaperCluster())

	h := buildHetis(t, m, reqs)
	resHet, err := h.Run(reqs, 3600)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := NewHexGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resHx, err := hx.Run(reqs, 3600)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSplitwise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resSw, err := sw.Run(reqs, 3600)
	if err != nil {
		t.Fatal(err)
	}

	lat := func(r *Result) float64 { return r.Recorder.Snapshot().NormLat.Mean }
	t.Logf("norm latency: hetis %.4f, hexgen %.4f, splitwise %.4f (completed %d/%d/%d)",
		lat(resHet), lat(resHx), lat(resSw), resHet.Completed, resHx.Completed, resSw.Completed)
	if resHet.Completed < resHx.Completed || resHet.Completed < resSw.Completed {
		t.Errorf("hetis completed fewer requests than a baseline")
	}
	if lat(resHet) >= lat(resHx) {
		t.Errorf("hetis latency %.4f should beat hexgen %.4f", lat(resHet), lat(resHx))
	}
	if lat(resHet) >= lat(resSw) {
		t.Errorf("hetis latency %.4f should beat splitwise %.4f", lat(resHet), lat(resSw))
	}
}

func TestEvictionUnderMemoryPressure(t *testing.T) {
	// A tiny two-GPU cluster with LongBench-scale contexts must trigger
	// evictions or drops without deadlocking.
	cluster := hardware.NewBuilder(hardware.LAN100G).
		AddHost("h0", hardware.PCIe4x16, hardware.A100, 1).
		AddHost("h1", hardware.PCIe3x16, hardware.P100, 1).
		MustBuild()
	m := model.Llama13B
	cfg := DefaultConfig(m, cluster)
	reqs := workload.Poisson(workload.LongBench, 3, 20, 5)
	plan, err := PlanForWorkload(cfg, reqs)
	if err != nil {
		t.Skipf("plan infeasible on tiny cluster: %v", err)
	}
	h, err := NewHetis(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(reqs, 2000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tiny cluster: %d completed, %d evictions, horizon %.1fs",
		res.Completed, res.Evictions, res.Horizon)
	if res.Completed == 0 {
		t.Fatal("nothing completed on the tiny cluster")
	}
}

func TestTraceEventsEmitted(t *testing.T) {
	reqs := shortTrace(workload.HumanEval, 3, 10, 9)
	h := buildHetis(t, model.Llama13B, reqs)
	res, err := h.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Count(trace.KindArrival) != len(reqs) {
		t.Errorf("arrivals %d want %d", res.Trace.Count(trace.KindArrival), len(reqs))
	}
	if res.Trace.Count(trace.KindFinish) != len(reqs) {
		t.Errorf("finishes %d want %d", res.Trace.Count(trace.KindFinish), len(reqs))
	}
	if res.Trace.Count(trace.KindPrefill) == 0 || res.Trace.Count(trace.KindDecode) == 0 {
		t.Error("missing prefill/decode events")
	}
}

func TestSampledSeries(t *testing.T) {
	reqs := shortTrace(workload.ShareGPT, 3, 12, 4)
	h := buildHetis(t, model.Llama13B, reqs)
	res, err := h.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HeadSeries) == 0 || len(res.CacheSeries) == 0 {
		t.Fatal("no sampled series")
	}
	for dev, s := range res.CacheSeries {
		for _, v := range s.Values {
			if v < 0 || v > 100 {
				t.Fatalf("device %d cache utilization %g out of [0,100]", dev, v)
			}
		}
	}
}

func TestModuleTimesRecorded(t *testing.T) {
	reqs := shortTrace(workload.ShareGPT, 3, 12, 8)
	h := buildHetis(t, model.Llama13B, reqs)
	res, err := h.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DenseTimes.Len() == 0 || res.AttnTimes.Len() == 0 {
		t.Fatal("module times missing")
	}
	for _, v := range res.DenseTimes.Values() {
		if v <= 0 {
			t.Fatal("non-positive dense module time")
		}
	}
}

// TestModuleSeriesPages appends across page boundaries and reads the
// series back flat, in order.
func TestModuleSeriesPages(t *testing.T) {
	var m ModuleSeries
	if m.Values() != nil || m.Len() != 0 {
		t.Fatal("an empty series must read back nil")
	}
	const n = 2*4096 + 3
	for i := 0; i < n; i++ {
		m.Append(float64(i))
	}
	vals := m.Values()
	if m.Len() != n || len(vals) != n {
		t.Fatalf("%d values held, %d read back, want %d", m.Len(), len(vals), n)
	}
	for i, v := range vals {
		if v != float64(i) {
			t.Fatalf("value %d reads %g", i, v)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Cluster = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil cluster should fail")
	}
	bad = good
	bad.Theta = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative theta should fail")
	}
	if _, err := NewHetis(good, nil); err == nil {
		t.Error("nil plan should fail")
	}
}

func TestQueueBasics(t *testing.T) {
	var q queue
	if q.pop() != nil || q.peek() != nil || q.len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	a := &request{}
	b := &request{}
	c := &request{}
	q.push(a)
	q.push(b)
	q.pushFront(c)
	if q.len() != 3 || q.pop() != c || q.pop() != a || q.pop() != b {
		t.Fatal("queue ordering broken")
	}
	// pushFront after pops reuses the vacated slot.
	q.push(a)
	q.pop()
	q.pushFront(b)
	if q.len() != 1 || q.pop() != b {
		t.Fatal("pushFront after pop broken")
	}
}

func TestModuleLatencyMetric(t *testing.T) {
	if got := moduleLatency(nil); got != 0 {
		t.Fatalf("empty moduleLatency = %g", got)
	}
	if got := moduleLatency([]float64{1, 3, 2}); got != 9 {
		t.Fatalf("moduleLatency = %g want 9 (max 3 x 3 stages)", got)
	}
}
