package hetis

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	// The README quickstart, end to end.
	cluster := PaperCluster()
	cfg := DefaultEngineConfig(Llama13B, cluster)
	reqs := PoissonTrace(ShareGPT, 4, 15, 1)
	plan, err := PlanDeployment(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewHetisEngine(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Completed, len(reqs))
	}
	if res.Recorder.Snapshot().TTFT.P95 <= 0 {
		t.Fatal("no TTFT recorded")
	}
}

func TestBaselineConstructors(t *testing.T) {
	cfg := DefaultEngineConfig(Llama13B, PaperCluster())
	if _, err := NewSplitwiseEngine(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHexGenEngine(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLookups(t *testing.T) {
	if _, err := GPUByName("a100"); err != nil {
		t.Error(err)
	}
	if _, err := ModelByName("llama-70b"); err != nil {
		t.Error(err)
	}
	if _, err := DatasetByName("LB"); err != nil {
		t.Error(err)
	}
}

func TestCustomClusterAndPlan(t *testing.T) {
	cluster, err := NewClusterBuilder(LAN100G).
		AddHost("big", NVLink3, A100, 2).
		AddHost("small", PCIe3x16, T4, 2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	wl := PlanWorkload{DecodeBatch: 16, AvgContext: 500, PrefillBatch: 2, AvgPrompt: 300, AvgOutput: 150}
	plan, err := SearchPlan(cluster, Llama13B, wl, DefaultPlanOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Instances) == 0 {
		t.Fatal("empty plan")
	}
}

func TestProfileClusterFacade(t *testing.T) {
	prof, err := ProfileCluster(OPT30B, PaperCluster(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Attn) != PaperCluster().NumDevices() {
		t.Fatalf("profile covers %d devices", len(prof.Attn))
	}
}

func TestExperimentRegistryViaFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	tab, err := RunExperiment("table1", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"A100", "3090", "P100"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

// TestRunScenarioUsesSpecEngineOrder checks that RunScenario serves a
// spec outside the catalog through the pooled runner, rows in the spec's
// engine order.
func TestRunScenarioUsesSpecEngineOrder(t *testing.T) {
	spec, err := ScenarioByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "steady-unregistered"
	spec.Engines = []string{"splitwise", "hexgen"}
	tab, err := RunScenario(spec, ScenarioOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][1] != "splitwise" || tab.Rows[1][1] != "hexgen" {
		t.Fatalf("rows do not follow spec engine order:\n%s", tab)
	}
}

// TestRunScenariosRefusesWindowWithoutStream: only the streaming sinks
// collect the windowed series, so a window on an exact run is refused
// with an error naming it rather than silently returning no series.
func TestRunScenariosRefusesWindowWithoutStream(t *testing.T) {
	_, wins, err := RunScenarios([]string{"steady"}, 0, ScenarioOptions{Quick: true, Window: 5}, SweepOptions{})
	if err == nil || !strings.Contains(err.Error(), "window 5 s") {
		t.Fatalf("Window 5 without Stream: windows %v, err %v; want an error naming window 5 s", wins, err)
	}
	if _, wins, err = RunScenarios([]string{"steady"}, 0, ScenarioOptions{Quick: true, Stream: true, Window: 5}, SweepOptions{}); err != nil || len(wins) == 0 {
		t.Fatalf("Window 5 with Stream: %d window tables, err %v", len(wins), err)
	}
}

// TestRegisterScenarioRefusesTenantInTwoTiers: the engine would schedule
// such a tenant under one tier and the table report it under the other,
// so the spec is refused with an error naming the tenant and both tiers.
func TestRegisterScenarioRefusesTenantInTwoTiers(t *testing.T) {
	spec, err := ScenarioByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "steady-chat-in-two-tiers"
	spec.Tiers = []ScenarioTier{
		{Name: "gold", Tenants: []string{"chat"}, Priority: 2},
		{Name: "silver", Tenants: []string{"chat"}, Priority: 1, MaxInflight: 1},
	}
	err = RegisterScenario(spec)
	if err == nil {
		t.Fatal("registered a spec naming tenant chat in two tiers")
	}
	for _, name := range []string{`"chat"`, `"gold"`, `"silver"`} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
	if _, err := ScenarioByName(spec.Name); err == nil {
		t.Error("the refused spec was registered")
	}
}

func TestEstimatorFacade(t *testing.T) {
	est, err := NewEstimator(Llama70B)
	if err != nil {
		t.Fatal(err)
	}
	if d := est.Compile(A100, 1); d.DenseLayerTime(64) <= 0 {
		t.Fatal("estimator returned non-positive time")
	}
}

// TestPlanningRejectsBadInput pins that planning and profiling through the
// facade return errors, not panics, for a zero model, a nil cluster and a
// primary outside the cluster.
func TestPlanningRejectsBadInput(t *testing.T) {
	reqs := PoissonTrace(ShareGPT, 2, 5, 1)
	wl := PlanWorkload{DecodeBatch: 64, AvgContext: 600, PrefillBatch: 4, AvgPrompt: 400, AvgOutput: 240}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"NewEstimator zero model", func() error {
			_, err := NewEstimator(ModelConfig{})
			return err
		}},
		{"SearchPlan zero model", func() error {
			_, err := SearchPlan(PaperCluster(), ModelConfig{}, wl, DefaultPlanOptions())
			return err
		}},
		{"SearchPlan nil cluster", func() error {
			_, err := SearchPlan(nil, OPT30B, wl, DefaultPlanOptions())
			return err
		}},
		{"ProfileCluster zero model", func() error {
			_, err := ProfileCluster(ModelConfig{}, PaperCluster(), 0)
			return err
		}},
		{"ProfileCluster primary 99", func() error {
			_, err := ProfileCluster(OPT30B, PaperCluster(), 99)
			return err
		}},
		{"ProfileCluster primary -1", func() error {
			_, err := ProfileCluster(OPT30B, PaperCluster(), -1)
			return err
		}},
		{"PlanDeployment zero model", func() error {
			_, err := PlanDeployment(DefaultEngineConfig(ModelConfig{}, PaperCluster()), reqs)
			return err
		}},
		{"PlanDeployment nil cluster", func() error {
			_, err := PlanDeployment(DefaultEngineConfig(OPT30B, nil), reqs)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if err := tc.call(); err == nil {
				t.Fatal("succeeded, want an error")
			}
		})
	}
}

// TestRunRejectsBadTrace drives every engine's Run with a trace holding
// one malformed request: it must return an error naming that request's
// index and ID, never panic.
func TestRunRejectsBadTrace(t *testing.T) {
	cfg := DefaultEngineConfig(Llama13B, PaperCluster())
	good := PoissonTrace(ShareGPT, 2, 5, 1)
	plan, err := PlanDeployment(cfg, good)
	if err != nil {
		t.Fatal(err)
	}
	hetis, err := NewHetisEngine(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	splitwise, err := NewSplitwiseEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hexgen, err := NewHexGenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vllm, err := NewVLLMEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		bad  func(*Request)
	}{
		{"NaN arrival", func(r *Request) { r.ArrivalAt = nan }},
		{"+Inf arrival", func(r *Request) { r.ArrivalAt = inf }},
		{"-Inf arrival", func(r *Request) { r.ArrivalAt = -inf }},
		{"negative arrival", func(r *Request) { r.ArrivalAt = -1 }},
		{"negative prompt", func(r *Request) { r.PromptLen = -5 }},
		{"negative output", func(r *Request) { r.OutputLen = -5 }},
	} {
		for _, eng := range []Engine{hetis, splitwise, hexgen, vllm} {
			t.Run(tc.name+"/"+eng.Name(), func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				reqs := append([]Request(nil), good...)
				const at = 3
				tc.bad(&reqs[at])
				_, err := eng.Run(reqs, 0)
				want := fmt.Sprintf("request %d (ID %d)", at, reqs[at].ID)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Run error %v, want one naming %q", err, want)
				}
			})
		}
	}
}
