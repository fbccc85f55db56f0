package parallelizer

import (
	"testing"
	"time"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/perf"
)

// newEst is perf.New for a model configuration the test knows is valid.
func newEst(tb testing.TB, cfg model.Config) *perf.Estimator {
	tb.Helper()
	est, err := perf.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

func searchPaper(t *testing.T, cfg model.Config, wl Workload, opts Options) *Plan {
	t.Helper()
	plan, err := Search(hardware.PaperCluster(), newEst(t, cfg), wl, opts)
	if err != nil {
		t.Fatalf("Search(%s): %v", cfg.Name, err)
	}
	return plan
}

func specCounts(plan *Plan) (primaries, attn map[string]int) {
	primaries = map[string]int{}
	attn = map[string]int{}
	c := hardware.PaperCluster()
	for _, in := range plan.Instances {
		for _, st := range in.Stages {
			primaries[st.Spec.Name] += len(st.Devices)
		}
		for _, id := range in.AttentionWorkers {
			attn[c.Device(id).Spec.Name]++
		}
	}
	return primaries, attn
}

func TestLlama70BMatchesPaperDeployment(t *testing.T) {
	// §7.2: "In Hetis, A100 and 3090 GPUs serve as Primary Workers, while
	// P100s are dedicated to Attention Worker roles."
	plan := searchPaper(t, model.Llama70B, DefaultWorkload(), DefaultOptions())
	prim, attn := specCounts(plan)
	t.Logf("plan:\n%s", plan)
	if prim["P100"] != 0 {
		t.Errorf("P100s should not be primary workers, got %d", prim["P100"])
	}
	if attn["P100"] != 4 {
		t.Errorf("all 4 P100s should be attention workers, got %d", attn["P100"])
	}
	if prim["A100"] == 0 || prim["3090"] == 0 {
		t.Errorf("A100s and 3090s should serve as primaries: %v", prim)
	}
}

func TestEveryDeviceAssignedExactlyOnce(t *testing.T) {
	for _, cfg := range []model.Config{model.Llama13B, model.OPT30B, model.Llama70B} {
		plan := searchPaper(t, cfg, DefaultWorkload(), DefaultOptions())
		seen := map[hardware.DeviceID]int{}
		for _, in := range plan.Instances {
			for _, id := range in.AllDevices() {
				seen[id]++
			}
		}
		c := hardware.PaperCluster()
		if len(seen) != c.NumDevices() {
			t.Errorf("%s: plan covers %d devices, want %d", cfg.Name, len(seen), c.NumDevices())
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("%s: device %d assigned %d times", cfg.Name, id, n)
			}
		}
	}
}

func TestLayersSumToModel(t *testing.T) {
	for _, cfg := range []model.Config{model.Llama13B, model.OPT30B, model.Llama70B} {
		plan := searchPaper(t, cfg, DefaultWorkload(), DefaultOptions())
		for i, in := range plan.Instances {
			total := 0
			for _, st := range in.Stages {
				total += st.Layers
				if st.TP*st.PP != len(st.Devices) {
					t.Errorf("%s instance %d: TP(%d)*PP(%d) != %d devices", cfg.Name, i, st.TP, st.PP, len(st.Devices))
				}
			}
			if total != cfg.Layers {
				t.Errorf("%s instance %d: stages hold %d layers, want %d", cfg.Name, i, total, cfg.Layers)
			}
		}
	}
}

func TestWeightsFitOnEveryPrimary(t *testing.T) {
	opts := DefaultOptions()
	for _, cfg := range []model.Config{model.Llama13B, model.OPT30B, model.Llama70B} {
		plan := searchPaper(t, cfg, DefaultWorkload(), opts)
		for _, in := range plan.Instances {
			for _, st := range in.Stages {
				perDev := float64(st.Layers) * float64(cfg.LayerWeightBytes()) / float64(len(st.Devices))
				budget := float64(st.Spec.MemBytes) * (1 - MemHeadroom)
				if perDev > budget {
					t.Errorf("%s: stage %s holds %.1fGB/device, budget %.1fGB",
						cfg.Name, st.Spec.Name, perDev/1e9, budget/1e9)
				}
			}
		}
	}
}

func TestStagesOrderedHighToLowTier(t *testing.T) {
	plan := searchPaper(t, model.Llama70B, DefaultWorkload(), DefaultOptions())
	for _, in := range plan.Instances {
		for i := 1; i < len(in.Stages); i++ {
			if in.Stages[i-1].Spec.Tier < in.Stages[i].Spec.Tier {
				t.Errorf("stages not ordered by tier: %s before %s",
					in.Stages[i-1].Spec.Name, in.Stages[i].Spec.Name)
			}
		}
	}
}

func TestDeltaZeroKeepsMorePrimaries(t *testing.T) {
	// With Δ=0, removals are only accepted when they strictly do not hurt;
	// the P100s end up kept as primaries more often. The attention pool
	// must therefore be no larger than under the default Δ.
	strict := DefaultOptions()
	strict.Delta = 0
	loose := DefaultOptions()
	loose.Delta = 0.5

	planStrict := searchPaper(t, model.Llama70B, DefaultWorkload(), strict)
	planLoose := searchPaper(t, model.Llama70B, DefaultWorkload(), loose)
	if planStrict.NumAttentionWorkers() > planLoose.NumAttentionWorkers() {
		t.Errorf("Δ=0 demoted more GPUs (%d) than Δ=0.5 (%d)",
			planStrict.NumAttentionWorkers(), planLoose.NumAttentionWorkers())
	}
}

func TestLargeDeltaStillKeepsAPrimary(t *testing.T) {
	opts := DefaultOptions()
	opts.Delta = 100 // try to demote everything
	plan := searchPaper(t, model.Llama13B, DefaultWorkload(), opts)
	for i, in := range plan.Instances {
		if len(in.Stages) == 0 {
			t.Errorf("instance %d has no primary workers", i)
		}
	}
}

func TestCacheCapacityPositiveAndCoversWorkload(t *testing.T) {
	wl := DefaultWorkload()
	plan := searchPaper(t, model.Llama13B, wl, DefaultOptions())
	need := int64(wl.DecodeBatch) * int64(wl.AvgContext) * model.Llama13B.KVBytesPerToken()
	if plan.CacheCapacity < need {
		t.Errorf("plan cache %.1fGB below workload demand %.1fGB",
			float64(plan.CacheCapacity)/1e9, float64(need)/1e9)
	}
}

func TestInfeasibleModelRejected(t *testing.T) {
	// A tiny cluster cannot hold Llama-70B weights at all.
	small := hardware.NewBuilder(hardware.LAN100G).
		AddHost("h", hardware.PCIe3x16, hardware.P100, 2).
		MustBuild()
	if _, err := Search(small, newEst(t, model.Llama70B), DefaultWorkload(), DefaultOptions()); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := DefaultWorkload()
	bad.DecodeBatch = 0
	if _, err := Search(hardware.PaperCluster(), newEst(t, model.Llama13B), bad, DefaultOptions()); err == nil {
		t.Fatal("invalid workload should error")
	}
	if _, err := Search(hardware.PaperCluster(), newEst(t, model.Llama13B), DefaultWorkload(), Options{Delta: -1}); err == nil {
		t.Fatal("negative delta should error")
	}
}

func TestHomogeneousClusterDegeneratesToClassicParallelism(t *testing.T) {
	// With one GPU type there is nothing to demote at Δ=0.05 (removing a
	// device always raises Cp by ~1/n > 5% for n ≤ 8); the plan is plain
	// TP/PP/DP.
	homo := hardware.NewBuilder(hardware.LAN100G).
		AddHost("h0", hardware.NVLink3, hardware.A100, 4).
		AddHost("h1", hardware.NVLink3, hardware.A100, 4).
		MustBuild()
	plan, err := Search(homo, newEst(t, model.Llama13B), DefaultWorkload(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumAttentionWorkers() != 0 {
		t.Errorf("homogeneous cluster demoted %d GPUs", plan.NumAttentionWorkers())
	}
}

func TestSearchOverheadSmall(t *testing.T) {
	// §7.4: search completes in seconds even for 5 GPU types × 32 GPUs. In
	// the simulator it must be far below that.
	big := hardware.NewBuilder(hardware.LAN100G)
	specs := []hardware.GPUSpec{hardware.H100, hardware.A100, hardware.V100, hardware.RTX3090, hardware.P100}
	for i, s := range specs {
		for h := 0; h < 4; h++ {
			big.AddHost(s.Name+"-host", hardware.PCIe4x16, s, 8)
		}
		_ = i
	}
	cluster := big.MustBuild()
	if cluster.NumDevices() != 160 {
		t.Fatalf("cluster has %d devices, want 160", cluster.NumDevices())
	}
	wl := DefaultWorkload()
	wl.DecodeBatch = 512
	plan, err := Search(cluster, newEst(t, model.Llama70B), wl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("160-GPU search: %v elapsed, %d configs, %d attention workers",
		plan.Elapsed, plan.Evaluated, plan.NumAttentionWorkers())
	if plan.Elapsed > 15*time.Second {
		t.Errorf("search took %v, paper reports 15s for this scale", plan.Elapsed)
	}
}

func TestPlanStringMentionsStages(t *testing.T) {
	plan := searchPaper(t, model.Llama70B, DefaultWorkload(), DefaultOptions())
	s := plan.String()
	if s == "" {
		t.Fatal("empty plan description")
	}
	for _, want := range []string{"instance", "A100", "attention workers"} {
		if !containsStr(s, want) {
			t.Errorf("plan description missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
