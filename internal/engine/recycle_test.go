package engine

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// runCounters is what a Result reports beyond its records and trace.
type runCounters struct {
	Completed, Evictions, Migrations, Dropped, Queued, Preempted int
	ScaleUps, ScaleDowns                                         int
	LPSolves, LPSolvesAvoided, DecodeSteps, PerRequestSteps      int
	MigratedBytes, PeakCacheUsed                                 int64
	Events                                                       uint64
	Horizon                                                      float64
	PreemptedByTenant                                            map[string]int
	RecoveryTimes, DenseTimes, AttnTimes                         []float64
}

func countersOf(res *Result) runCounters {
	return runCounters{
		Completed: res.Completed, Evictions: res.Evictions, Migrations: res.Migrations,
		Dropped: res.Dropped, Queued: res.Queued, Preempted: res.Preempted,
		ScaleUps: res.ScaleUps, ScaleDowns: res.ScaleDowns,
		LPSolves: res.LPSolves, LPSolvesAvoided: res.LPSolvesAvoided,
		DecodeSteps: res.DecodeSteps, PerRequestSteps: res.PerRequestSteps,
		MigratedBytes: res.MigratedBytes, PeakCacheUsed: res.PeakCacheUsed,
		Events: res.Events, Horizon: res.Horizon,
		PreemptedByTenant: res.PreemptedByTenant, RecoveryTimes: res.RecoveryTimes,
		DenseTimes: res.DenseTimes.Values(), AttnTimes: res.AttnTimes.Values(),
	}
}

// runPoisoned runs engine name on reqs with retired requests poisoned
// instead of recycled (see requestPool).
func runPoisoned(t *testing.T, name string, cfg Config, reqs []workload.Request, horizon float64) *Result {
	t.Helper()
	cfg.poisonRetired = true
	eng, err := NewByName(name, cfg, reqs)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	res, err := eng.Run(reqs, horizon)
	if err != nil {
		t.Fatalf("%s: poisoned run: %v", name, err)
	}
	return res
}

// checkSameRun fails unless a recycling run and its poisoned twin report
// the same records, trace JSONL and counters: any read of a request after
// the flush that retires it sees poison in one run and a later arrival's
// state in the other.
func checkSameRun(t *testing.T, name string, recycled, poisoned *Result) {
	t.Helper()
	if a, b := recycled.Recorder.Records(), poisoned.Recorder.Records(); !slices.Equal(a, b) {
		t.Errorf("%s: records differ between recycling (%d) and poison (%d) runs", name, len(a), len(b))
	}
	var a, b bytes.Buffer
	if err := recycled.Trace.WriteJSONL(&a); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := poisoned.Trace.WriteJSONL(&b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("%s: trace JSONL differs between recycling (%d B) and poison (%d B) runs", name, a.Len(), b.Len())
	}
	if a, b := countersOf(recycled), countersOf(poisoned); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: counters differ between recycling and poison runs:\n%+v\n%+v", name, a, b)
	}
}

// TestRecycledRequestsMatchPoisoned is the recycling guard on runs that
// reach the engines' eviction and preemption paths: OPT-30B under a
// three-tenant mix at 8 req/s, healthy on the paper cluster (Hetis must
// evict) and under two priority tiers on a smaller 2xA100+2x3090 cluster
// (every engine must preempt). Each engine's recycling run must match its poisoned twin.
//
// The differential cannot reach the case the fresh-batch fix in
// prefillDone closes: a request recycled at a prefill's flush can only
// come back through an arrival, a later event, and every path from there
// to evict passes a prefillDone or afterDecode that resets fresh first.
// TestFreshOmitsFinishers pins that fix directly.
func TestRecycledRequestsMatchPoisoned(t *testing.T) {
	reqs := workload.Synthesize(workload.PoissonArrivals(8, 60, rand.New(rand.NewSource(3))), 0, []workload.MixEntry{
		{Tenant: "chat", Dataset: workload.ShareGPT, Weight: 3},
		{Tenant: "code", Dataset: workload.HumanEval, Weight: 2},
		{Tenant: "batch", Dataset: workload.LongBench, Weight: 1},
	}, 3)
	healthy := DefaultConfig(model.OPT30B, hardware.PaperCluster())
	small, err := hardware.ParseCluster("2xA100,2x3090")
	if err != nil {
		t.Fatal(err)
	}
	tiered := DefaultConfig(model.OPT30B, small)
	tiered.Chaos = &ChaosConfig{Tiers: []Tier{
		{Name: "gold", Tenants: []string{"chat"}, Priority: 1},
		{Name: "bronze", Priority: 0},
	}}
	for _, tc := range []struct {
		run string
		cfg Config
	}{{"healthy", healthy}, {"tiered", tiered}} {
		for _, name := range Names {
			t.Run(tc.run+"/"+name, func(t *testing.T) {
				eng, err := NewByName(name, tc.cfg, reqs)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				res, err := eng.Run(reqs, 0)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				checkSameRun(t, name, res, runPoisoned(t, name, tc.cfg, reqs, 0))
				switch {
				case tc.run == "healthy" && name == "hetis" && res.Evictions == 0:
					t.Error("no eviction: the trace no longer reaches Hetis' memory-pressure path")
				case tc.run == "tiered" && res.Preempted == 0:
					t.Error("no preemption: the trace no longer reaches the tiered preemption path")
				}
			})
		}
	}
}
