package engine

import (
	"strings"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/sim"
	"hetis/internal/workload"
)

// stormConfig is a dense chaos setup: three replicas, four overlapping
// failure windows, an autoscaler, and two priority tiers — every chaos
// event class at once.
func stormConfig() *ChaosConfig {
	return &ChaosConfig{
		Replicas: 3,
		Failures: []FailureWindow{
			{Replica: 0, Start: 1, End: 3},
			{Replica: 1, Start: 2, End: 4, HaulKV: true},
			{Replica: 2, Start: 2.5, End: 5},
			{Replica: 0, Start: 6, End: 7},
		},
		Autoscale: &AutoscalePolicy{
			MinReplicas: 1, MaxReplicas: 4,
			Interval: 1, Lag: 0.5,
			UpBelow: 0.99, DownAbove: 0.999,
		},
		Tiers: []Tier{
			{Name: "gold", Tenants: []string{"a"}, Priority: 1},
			{Name: "bronze", Priority: 0, MaxInflight: 64},
		},
	}
}

// TestMaxSimEventsChaosMultiplier pins the budget formula's chaos term:
// every replica runs its own loop, every failure window can trigger a
// fleet-wide re-dispatch, and autoscaling and tiering each add an event
// class, so the budget must scale with all of them. Before the fix the
// budget ignored chaos entirely, sized for one healthy replica — a
// legitimate failover storm on a large trace could trip the runaway guard.
func TestMaxSimEventsChaosMultiplier(t *testing.T) {
	var cfg Config
	n := 1_000_000
	healthy := cfg.MaxSimEvents(n)

	cfg.Chaos = stormConfig()
	// maxReplicas(4) + failures(4) + autoscale(1) + tiers(1) = 10.
	if got, want := cfg.MaxSimEvents(n), healthy*10; got != want {
		t.Errorf("storm MaxSimEvents(%d)=%d want %d (10x the healthy budget)", n, got, want)
	}

	// Inert chaos — a config normalize() reports as no-op — must leave the
	// budget exactly on the legacy value, like every other chaos-off path.
	cfg.Chaos = &ChaosConfig{Replicas: 1}
	if got := cfg.MaxSimEvents(n); got != healthy {
		t.Errorf("inert chaos MaxSimEvents(%d)=%d want healthy %d", n, got, healthy)
	}

	// The floor still applies after the multiplier.
	cfg.Chaos = stormConfig()
	if got := cfg.MaxSimEvents(1); got != minEventBudget {
		t.Errorf("small-trace storm MaxSimEvents(1)=%d want floor %d", got, minEventBudget)
	}
}

// TestChaosStormStaysInsideBudget runs every engine through the full
// storm and checks two sides of the guard at once: the run terminates
// normally inside the chaos-scaled budget, and the event count really
// does exceed what a healthy-sized per-request budget would have allowed
// — the situation that used to abort legitimate failover storms.
func TestChaosStormStaysInsideBudget(t *testing.T) {
	reqs := workload.Poisson(workload.HumanEval, 4, 20, 7)
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	// A deliberately tight per-request budget, so the healthy-sized bound
	// per*n is small enough for the storm to overrun it.
	const per = 2
	cfg.Chaos = stormConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	healthySized := uint64(per) * uint64(len(reqs))
	budget := cfg.eventBudget(len(reqs), per)
	for _, name := range Names {
		eng, err := NewByName(name, cfg, reqs)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		res, err := eng.Run(reqs, 200)
		if err != nil {
			t.Fatalf("%s: storm must finish inside the chaos-scaled budget: %v", name, err)
		}
		if res.Events > budget {
			t.Errorf("%s: %d events exceed the chaos-scaled budget %d", name, res.Events, budget)
		}
		if res.Events <= healthySized {
			t.Errorf("%s: storm ran only %d events, not above the healthy-sized bound %d — test lost its teeth",
				name, res.Events, healthySized)
		}
	}
}

// TestChaosBudgetStillAbortsRunaway feeds the chaos-scaled budget to the
// simulator guard and drives a genuine livelock — an event that forever
// reschedules itself. The multiplier is a constant for a given config, so
// the guard must still trip; scaling the budget for storms must not turn
// it off.
func TestChaosBudgetStillAbortsRunaway(t *testing.T) {
	var cfg Config
	cfg.Chaos = stormConfig()
	budget := cfg.eventBudget(8, 1) // floor-dominated: 1e6 events
	s := sim.New()
	s.MaxEvents = budget
	var loop func(*sim.Simulator)
	loop = func(s *sim.Simulator) { s.After(0.001, "livelock", loop) }
	s.After(0, "livelock", loop)
	err := s.Run(0)
	if err == nil {
		t.Fatal("livelock must trip the runaway guard, got nil")
	}
	if !strings.Contains(err.Error(), "MaxEvents") {
		t.Fatalf("unexpected error: %v", err)
	}
	if s.Executed != budget+1 {
		t.Errorf("guard tripped after %d events, want budget %d + the aborting event", s.Executed, budget)
	}
}

// TestStaticEvacuationLosesNoRequest runs the storm on the static engines
// until it drains: every request must complete or be dropped. The storm
// tears replicas down mid-prefill, so a request admitted to an in-flight
// prefill must come back out of evacuate as a victim; one that did not
// would sit in the ledger's Queued term forever.
func TestStaticEvacuationLosesNoRequest(t *testing.T) {
	reqs := workload.Poisson(workload.HumanEval, 4, 20, 7)
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	cfg.Chaos = stormConfig()
	for _, name := range []string{"hexgen", "vllm"} {
		eng, err := NewByName(name, cfg, reqs)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		res, err := eng.Run(reqs, 0)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if res.Queued != 0 || res.Completed+res.Dropped != len(reqs) {
			t.Errorf("%s: completed %d + dropped %d of %d offered, %d never left the system",
				name, res.Completed, res.Dropped, len(reqs), res.Queued)
		}
	}
}
