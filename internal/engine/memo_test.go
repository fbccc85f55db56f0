package engine

import (
	"math/rand"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/workload"
)

// TestDecodeCostMemoBitEqual asserts the per-batch dense-cost memo a Hetis
// instance's stage pipeline keeps is a pure cache: for random batch sizes,
// memo hits return the exact values a fresh recomputation from the cost
// model produces, bit for bit. This is the engine half of the optimization
// contract (the dispatch half is TestCachingDecisionEquivalence).
func TestDecodeCostMemoBitEqual(t *testing.T) {
	reqs := shortTrace(workload.ShareGPT, 2, 10, 3)
	h := buildHetis(t, model.Llama13B, reqs)
	res := &Result{}
	inst, err := h.newInstance(h.plan.Instances[0], res)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		batch := 1 + rng.Intn(256)
		got := inst.pipe.denseCostFor(inst.cfg, batch) // may be a memo hit

		// Fresh recomputation straight from the cost model, in the order
		// the unmemoized Hetis step added its terms.
		stages := inst.pipe.stages
		stageTimes := make([]float64, len(stages))
		var dense float64
		for k, st := range stages {
			stageTimes[k] = refStageDecodeTime(h.est, st, batch, parallelizer.StageLink(h.cfg.Cluster, st))
			dense += stageTimes[k]
		}
		if len(stages) > 1 {
			dense += float64(len(stages)-1) *
				perf.P2PTime(h.cfg.Cluster.InterLink, h.cfg.Model.HiddenStateBytes(batch))
		}
		last := stages[len(stages)-1]
		lm := h.est.Compile(last.Spec, last.TP)
		dense += lm.LMHeadTime(batch)
		wantModule := moduleLatency(stageTimes)

		if got.dense != dense || got.module != wantModule {
			t.Fatalf("batch %d: memo (%v, %v) != recomputed (%v, %v)",
				batch, got.dense, got.module, dense, wantModule)
		}
	}
}

// TestStaticDenseMemoBitEqual is the same property for the static
// pipelines shared by hexgen/splitwise/vllm: decodeTime with a warm memo
// must reproduce, bit for bit, both the cold result and refDecodeTime's
// unmemoized cost, for every (batch, ctx) pair on each engine's pipeline;
// and prefillTime, priced from the compiled stage records and memoized for
// one-prompt batches, must equal refPrefillTime's freshly compiled cost
// on each pipeline that prefills, empty and zero-length prompts included.
func TestStaticDenseMemoBitEqual(t *testing.T) {
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	type engines struct{ hx, swPrefill, swDecode, v *stagePipeline }
	build := func() engines {
		hx, err := NewHexGen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := NewSplitwise(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewVLLM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return engines{hx.pipe, sw.prefill, sw.decode, v.pipe}
	}
	w, c := build(), build()
	warm := []*stagePipeline{w.hx, w.swDecode, w.v}
	cold := []*stagePipeline{c.hx, c.swDecode, c.v}
	prefill := []*stagePipeline{w.hx, w.swPrefill, w.v}
	est, err := perf.New(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Warm each memo with every batch size first; cold recomputes each
	// point on a fresh pipeline whose memo is reset before every call.
	for trial := 0; trial < 100; trial++ {
		batch := 1 + rng.Intn(128)
		ctx := int64(batch * (64 + rng.Intn(1024)))
		for k := range warm {
			dt1, d1, a1 := warm[k].decodeTime(&cfg, batch, ctx)
			cold[k].denseMemo = nil // force recomputation
			dt2, d2, a2 := cold[k].decodeTime(&cfg, batch, ctx)
			dt3, d3, a3 := refDecodeTime(warm[k], est, cfg, batch, ctx)
			if dt1 != dt2 || d1 != d2 || a1 != a2 || dt1 != dt3 || d1 != d3 || a1 != a3 {
				t.Fatalf("pipeline %d batch %d ctx %d: warm (%v,%v,%v) cold (%v,%v,%v) unmemoized (%v,%v,%v)",
					k, batch, ctx, dt1, d1, a1, dt2, d2, a2, dt3, d3, a3)
			}
		}
		prompts := make([]int, rng.Intn(6))
		for i := range prompts {
			if rng.Intn(8) > 0 {
				prompts[i] = rng.Intn(4096)
			}
		}
		for k, p := range prefill {
			want := refPrefillTime(p, est, cfg, prompts)
			// The second call of a one-prompt batch is a soloMemo hit.
			for rep := 0; rep < 2; rep++ {
				if got := p.prefillTime(&cfg, prompts); got != want {
					t.Fatalf("pipeline %d prompts %v call %d: prefill %v, per-call %v", k, prompts, rep, got, want)
				}
			}
		}
	}
}

// refDecodeTime is the frozen unmemoized static decode cost: every term
// recomputed from a freshly compiled cost record on each call, in its
// original order.
func refDecodeTime(p *stagePipeline, est *perf.Estimator, cfg Config, batch int, ctxTokens int64) (dt, denseModule, attnModule float64) {
	m := cfg.Model
	densePerStage := make([]float64, len(p.stages))
	attnPerStage := make([]float64, len(p.stages))
	for k, st := range p.stages {
		densePerStage[k] = refStageDecodeTime(est, st, batch, parallelizer.StageLink(cfg.Cluster, st))
		heads := batch * m.Heads / st.TP
		cacheLayer := ctxTokens * m.KVBytesPerTokenLayer() / int64(st.TP)
		d := est.Compile(st.Spec, 1)
		attnPerStage[k] = float64(st.Layers) * d.AttnDecodeTime(heads, cacheLayer)
		dt += densePerStage[k] + attnPerStage[k]
	}
	if len(p.stages) > 1 {
		dt += float64(len(p.stages)-1) * perf.P2PTime(cfg.Cluster.InterLink, m.HiddenStateBytes(batch))
	}
	last := p.stages[len(p.stages)-1]
	lm := est.Compile(last.Spec, last.TP)
	dt += lm.LMHeadTime(batch)
	return dt, moduleLatency(densePerStage), moduleLatency(attnPerStage)
}

// refPrefillTime is the static prefill cost recomputed from freshly
// compiled cost records, in the original order.
func refPrefillTime(p *stagePipeline, est *perf.Estimator, cfg Config, prompts []int) float64 {
	m := cfg.Model
	total := 0
	for _, l := range prompts {
		total += l
	}
	var dt float64
	for _, st := range p.stages {
		if len(prompts) == 0 {
			continue
		}
		link := parallelizer.StageLink(cfg.Cluster, st)
		d := est.Compile(st.Spec, st.TP)
		dense := float64(st.Layers) * d.DenseLayerTime(total)
		attn := float64(st.Layers) * d.AttnPrefillLayerTime(prompts)
		var comm float64
		if st.TP > 1 {
			comm += float64(st.Layers) * 2 * perf.AllReduceTime(link, m.HiddenStateBytes(total), st.TP)
		}
		if st.PP > 1 {
			comm += float64(st.PP-1) * perf.P2PTime(link, m.HiddenStateBytes(total))
		}
		dt += dense + attn + comm
	}
	if len(p.stages) > 1 {
		dt += float64(len(p.stages)-1) * perf.P2PTime(cfg.Cluster.InterLink, m.HiddenStateBytes(total))
	}
	last := p.stages[len(p.stages)-1]
	lm := est.Compile(last.Spec, last.TP)
	dt += lm.LMHeadTime(len(prompts))
	return dt
}

// refStageDecodeTime is one stage's decode cost from a freshly compiled
// cost record: dense compute, per-layer tensor-parallel all-reduces and
// the hops inside the stage.
func refStageDecodeTime(est *perf.Estimator, st parallelizer.Stage, tokens int, link hardware.LinkSpec) float64 {
	m := est.Config()
	d := est.Compile(st.Spec, st.TP)
	dense := float64(st.Layers) * d.DenseLayerTime(tokens)
	var comm float64
	if st.TP > 1 {
		comm += float64(st.Layers) * (2 * perf.AllReduceTime(link, m.HiddenStateBytes(tokens), st.TP))
	}
	if st.PP > 1 {
		comm += float64(st.PP-1) * perf.P2PTime(link, m.HiddenStateBytes(tokens))
	}
	return dense + comm
}
