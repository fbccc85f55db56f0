package engine

import (
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// TestHorizonSharedAcrossEngines pins the horizon-denominator fix at the
// engine level: all four engines serving the identical trace under the
// same positive horizon must report the same Result.Horizon, even though
// they drain their queues at different times. Before the fix, Horizon was
// the last event time, so a faster engine divided Throughput and Goodput
// by a smaller denominator than its competitor on the same row of a
// comparison table.
func TestHorizonSharedAcrossEngines(t *testing.T) {
	reqs := shortTrace(workload.HumanEval, 3, 10, 4)
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	const horizon = 300.0 // far beyond the drain time of every engine

	for _, name := range Names {
		eng, err := NewByName(name, cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := eng.Run(reqs, horizon)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Completed != len(reqs) {
			t.Fatalf("%s completed %d of %d (trace should drain well before the horizon)",
				name, res.Completed, len(reqs))
		}
		if res.Horizon != horizon {
			t.Errorf("%s: Horizon=%g want %g — cross-engine rate denominators must match",
				name, res.Horizon, horizon)
		}
		if thr := res.Throughput(); thr != float64(res.Completed)/horizon {
			t.Errorf("%s: Throughput=%g want %g", name, thr, float64(res.Completed)/horizon)
		}
	}
}

// TestMaxSimEvents covers the Config-derived runaway guard: the budget
// scales with the trace and never drops below the floor.
func TestMaxSimEvents(t *testing.T) {
	var cfg Config
	if got := cfg.MaxSimEvents(0); got != minEventBudget {
		t.Errorf("MaxSimEvents(0)=%d want floor %d", got, minEventBudget)
	}
	if got := cfg.MaxSimEvents(1); got != minEventBudget {
		t.Errorf("MaxSimEvents(1)=%d want floor %d", got, minEventBudget)
	}
	n := 1_000_000
	want := uint64(maxEventsPerRequest) * uint64(n)
	if got := cfg.MaxSimEvents(n); got != want {
		t.Errorf("MaxSimEvents(%d)=%d want %d (must scale with the trace)", n, got, want)
	}
	if got := cfg.eventBudget(n, 10); got != 10_000_000 {
		t.Errorf("eventBudget(%d, 10)=%d want 10000000", n, got)
	}
	// A smaller per-request budget still respects the floor for small
	// traces.
	if got := cfg.eventBudget(3, 10); got != minEventBudget {
		t.Errorf("small-trace eventBudget(3, 10)=%d want floor %d", got, minEventBudget)
	}
}

// TestEventBudgetFloorKeepsSmallTracesServiceable asserts the floor side
// of the guard: even an absurdly tight per-request budget cannot starve a
// small trace, because minEventBudget dominates. (The error side of the
// guard — aborting past MaxEvents — is pinned by sim.TestMaxEventsGuard;
// the engines only derive the bound.)
func TestEventBudgetFloorKeepsSmallTracesServiceable(t *testing.T) {
	reqs := shortTrace(workload.HumanEval, 3, 10, 4)
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	budget := cfg.eventBudget(len(reqs), 1)
	if budget != minEventBudget {
		t.Fatalf("eventBudget(%d, 1)=%d want floor %d", len(reqs), budget, minEventBudget)
	}
	hx, err := NewHexGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hx.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events > budget {
		t.Fatalf("a small trace ran %d events, past the floored budget %d", res.Events, budget)
	}
}
