package engine

import (
	"slices"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/parallelizer"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// pressuredSetup builds the Fig. 14-style small cluster with a pinned plan
// and a trace heavy enough to exercise §5.3.
func pressuredSetup(t *testing.T, mutate func(*Config)) *Result {
	t.Helper()
	h := pressuredHetis(t, model.Llama13B, mutate)
	reqs := workload.Poisson(workload.ShareGPT, 6, 60, 99)
	res, err := h.Run(reqs, 2400)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pressuredHetis is pressuredSetup's engine for model m: one A100 primary
// and two 3090 attention workers.
func pressuredHetis(t *testing.T, m model.Config, mutate func(*Config)) *Hetis {
	t.Helper()
	cluster := hardware.NewBuilder(hardware.LAN100G).
		AddHost("a100", hardware.PCIe4x16, hardware.A100, 1).
		AddHost("3090-a", hardware.PCIe3x16, hardware.RTX3090, 1).
		AddHost("3090-b", hardware.PCIe3x16, hardware.RTX3090, 1).
		MustBuild()
	plan := &parallelizer.Plan{Instances: []parallelizer.Instance{{
		Stages: []parallelizer.Stage{{
			Spec: hardware.A100, Devices: []hardware.DeviceID{0},
			TP: 1, PP: 1, Layers: m.Layers,
		}},
		AttentionWorkers: []hardware.DeviceID{1, 2},
	}}}
	cfg := DefaultConfig(m, cluster)
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := NewHetis(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestGreedyDispatchOptionServes(t *testing.T) {
	res := pressuredSetup(t, func(c *Config) { c.GreedyDispatch = true })
	if res.Completed == 0 {
		t.Fatal("greedy engine served nothing")
	}
	if res.Recorder.Snapshot().NormLat.Mean <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestBlockingMigrationOptionServes(t *testing.T) {
	res := pressuredSetup(t, func(c *Config) { c.BlockingMigration = true })
	if res.Completed == 0 {
		t.Fatal("blocking-migration engine served nothing")
	}
}

func TestRedispatchFiresUnderPressure(t *testing.T) {
	res := pressuredSetup(t, nil)
	if res.Migrations == 0 {
		t.Fatal("no §5.3 migrations under a pressured trace")
	}
	if res.MigratedBytes == 0 {
		t.Fatal("migrations recorded but no bytes moved")
	}
}

func TestDisableRedispatchNeverMigrates(t *testing.T) {
	res := pressuredSetup(t, func(c *Config) { c.DisableRedispatch = true })
	if res.Migrations != 0 {
		t.Fatalf("DisableRedispatch still migrated %d times", res.Migrations)
	}
}

func TestPressuredDeterminism(t *testing.T) {
	// The pressured path (evictions, migrations, re-dispatching) must be
	// bit-for-bit deterministic.
	a := pressuredSetup(t, nil)
	b := pressuredSetup(t, nil)
	if a.Completed != b.Completed || a.Evictions != b.Evictions ||
		a.Migrations != b.Migrations || a.MigratedBytes != b.MigratedBytes ||
		a.Horizon != b.Horizon {
		t.Fatalf("pressured runs diverge: %+v vs %+v",
			[5]any{a.Completed, a.Evictions, a.Migrations, a.MigratedBytes, a.Horizon},
			[5]any{b.Completed, b.Evictions, b.Migrations, b.MigratedBytes, b.Horizon})
	}
	sa, sb := a.Recorder.Snapshot().NormLat, b.Recorder.Snapshot().NormLat
	if sa != sb {
		t.Fatalf("latency summaries diverge: %+v vs %+v", sa, sb)
	}
}

func TestContextWindowTruncation(t *testing.T) {
	// An OPT model (2048 window) served a LongBench trace must clamp
	// contexts rather than fail or run unbounded prompts, on every engine
	// and under failover chaos, and must leave the caller's trace as it
	// was: requests are clamped as they are admitted, never in place.
	window := model.OPT13B.MaxSeqLen
	reqs := workload.Poisson(workload.LongBench, 1, 20, 5)
	oversized := 0
	for _, r := range reqs {
		if r.TotalLen() > window {
			oversized++
		}
	}
	if oversized == 0 {
		t.Fatal("trace has no oversized requests; nothing to verify")
	}
	want := slices.Clone(reqs)

	healthy := DefaultConfig(model.OPT13B, hardware.PaperCluster())
	chaos := healthy
	chaos.Chaos = &ChaosConfig{Replicas: 2, Failures: []FailureWindow{
		{Replica: 0, Start: 4, End: 12, HaulKV: true},
	}}
	for _, run := range []struct {
		name string
		cfg  Config
	}{{"healthy", healthy}, {"failover", chaos}} {
		for _, name := range Names {
			t.Run(run.name+"/"+name, func(t *testing.T) {
				eng, err := NewByName(name, run.cfg, reqs)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(reqs, 2400)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(reqs, want) {
					t.Fatal("Run wrote the caller's trace")
				}
				if run.cfg.Chaos != nil && res.Trace.Count(trace.KindFailure) == 0 {
					t.Fatal("the failover run killed no replica")
				}
				if res.Completed != len(reqs) {
					t.Fatalf("completed %d of %d clamped requests (dropped %d, queued %d)",
						res.Completed, len(reqs), res.Dropped, res.Queued)
				}
				atWindow := 0
				for _, rec := range res.Recorder.Records() {
					if rec.PromptLen+rec.OutputLen > window {
						t.Fatalf("request %d served beyond the context window: %d+%d",
							rec.ID, rec.PromptLen, rec.OutputLen)
					}
					if rec.PromptLen+rec.OutputLen == window {
						atWindow++
					}
				}
				if atWindow == 0 {
					t.Fatalf("no record was clamped to the %d-token window, though %d requests exceed it", window, oversized)
				}
			})
		}
	}
}

func TestImpossibleRequestIsDropped(t *testing.T) {
	// A request whose context can never fit anywhere must be dropped (with
	// a trace note) rather than wedging the queue.
	cluster := hardware.NewBuilder(hardware.LAN100G).
		AddHost("a100", hardware.PCIe4x16, hardware.A100, 1).
		MustBuild()
	m := model.Llama13B
	m.MaxSeqLen = 0 // disable truncation so the giant context survives
	plan := &parallelizer.Plan{Instances: []parallelizer.Instance{{
		Stages: []parallelizer.Stage{{
			Spec: hardware.A100, Devices: []hardware.DeviceID{0},
			TP: 1, PP: 1, Layers: m.Layers,
		}},
	}}}
	cfg := DefaultConfig(m, cluster)
	h, err := NewHetis(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []workload.Request{
		{ID: 0, ArrivalAt: 0, PromptLen: 200000, OutputLen: 10}, // impossible
		{ID: 1, ArrivalAt: 0, PromptLen: 200, OutputLen: 10},    // fine
	}
	res, err := h.Run(reqs, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed %d, want 1 (giant dropped, small served)", res.Completed)
	}
}

func TestUnplaceableRequestIsDropped(t *testing.T) {
	// A request whose KV fits the pool's total free capacity but not in
	// whole head groups fails to place even on an empty instance. It must
	// be dropped there rather than wedge the requests queued behind it.
	m := model.Llama13B
	m.MaxSeqLen = 0 // disable truncation so the long context survives
	h := pressuredHetis(t, m, nil)
	reqs := []workload.Request{
		{ID: 0, ArrivalAt: 0, PromptLen: 97033, OutputLen: 10}, // unplaceable
		{ID: 1, ArrivalAt: 0, PromptLen: 200, OutputLen: 10},   // fine
	}
	res, err := h.Run(reqs, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed %d, queued %d; want 1 completed (unplaceable dropped, small served)", res.Completed, res.Queued)
	}
}
