package scenario

import (
	"testing"

	"hetis/internal/engine"
	"hetis/internal/model"
)

// runResult drives a scenario's engine through the same configuration path
// RunEngine uses but returns the raw engine.Result, so invariant tests can
// read the conservation ledger directly.
func runResult(t *testing.T, s Spec, engineName string) *engine.Result {
	t.Helper()
	s = Prepare(s, false)
	reqs, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.ByName(s.Model)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := ClusterByName(s.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig(m, cluster)
	cfg.Chaos = s.chaosConfig()
	e, err := engine.NewByName(engineName, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(reqs, MeasurementHorizon(s.Duration))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChaosConservation checks the request-conservation ledger on every
// engine of every chaos scenario (and a healthy baseline): each offered
// request is admitted exactly once into exactly one of completed, dropped,
// or still-queued, no matter how many failures, scale operations, or
// preemptions moved it around mid-flight.
func TestChaosConservation(t *testing.T) {
	var specs []Spec
	for _, name := range []string{"steady", "failover", "autoscale", "preempt"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec.ForGolden())
	}
	// churn kills a replica a dozen times, so some kills land while a
	// static engine's prefill is in flight: a request evacuate fails to
	// return shows up as a gap between the ledger and what the run holds.
	churn := specs[1]
	churn.Name, churn.FailurePlan = "churn", nil
	for i := 0; i < 12; i++ {
		start := 0.05 + 0.075*float64(i)
		churn.FailurePlan = append(churn.FailurePlan, FailureEvent{Replica: i % 2, Start: start, End: start + 0.03, HaulKV: i%3 == 0})
	}
	specs = append(specs, churn)
	for _, spec := range specs {
		name := spec.Name
		for _, eng := range spec.WithDefaults().Engines {
			eng := eng
			t.Run(name+"/"+eng, func(t *testing.T) {
				t.Parallel()
				s := Prepare(spec, false)
				reqs, err := s.Trace()
				if err != nil {
					t.Fatal(err)
				}
				res := runResult(t, spec, eng)
				offered := len(reqs)
				if got := res.Completed + res.Dropped + res.Queued; got != offered {
					t.Errorf("ledger leak: completed %d + dropped %d + queued %d = %d, offered %d",
						res.Completed, res.Dropped, res.Queued, got, offered)
				}
				// Each finished request produced exactly one record, and
				// every record belongs to an offered request.
				ids := map[int64]bool{}
				for _, r := range reqs {
					ids[r.ID] = true
				}
				seen := map[int64]bool{}
				dropped := 0
				for _, r := range res.Recorder.Records() {
					if !ids[r.ID] {
						t.Errorf("record for unknown request %d", r.ID)
					}
					if seen[r.ID] {
						t.Errorf("request %d recorded twice", r.ID)
					}
					seen[r.ID] = true
					if r.Dropped {
						dropped++
					}
				}
				if got := res.Recorder.Completed(); got != res.Completed {
					t.Errorf("recorder completed %d, result %d", got, res.Completed)
				}
				if dropped != res.Dropped {
					t.Errorf("recorder dropped %d, result %d", dropped, res.Dropped)
				}
			})
		}
	}
}

// TestChaosNoOpIdentical pins the healthy-path guarantee: chaos fields
// that cannot change behaviour (one replica, an empty failure plan, a
// single-priority uncapped tier) must normalize away entirely, down to
// byte-identical CSV output against a spec with no chaos fields at all.
func TestChaosNoOpIdentical(t *testing.T) {
	base, err := ByName("multitenant")
	if err != nil {
		t.Fatal(err)
	}

	inert := base
	inert.Replicas = 1
	inert.FailurePlan = []FailureEvent{}
	inert.Tiers = []TierSpec{
		{Name: "everyone", Priority: 3}, // catch-all, single priority, no cap
	}
	if inert.Chaotic() {
		t.Fatal("inert chaos spec reports Chaotic() == true")
	}
	if base.Chaotic() {
		t.Fatal("chaos-free spec reports Chaotic() == true")
	}

	want, got := runSpec(t, base), runSpec(t, inert)
	if got.CSV() != want.CSV() {
		t.Errorf("inert chaos spec drifted from its healthy twin:\n%s",
			diffLines([]byte(want.CSV()), []byte(got.CSV())))
	}
}

// TestChaosScenarioEffects pins that each chaos scenario actually
// exercises its mechanism — a failover run measures recoveries, an
// autoscale run scales, a preempt run preempts and drops — so the golden
// tables are pinning behaviour, not zeros.
func TestChaosScenarioEffects(t *testing.T) {
	t.Run("failover", func(t *testing.T) {
		spec, err := ByName("failover")
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range spec.WithDefaults().Engines {
			res := runResult(t, spec.ForGolden(), eng)
			if len(res.RecoveryTimes) != len(spec.FailurePlan) {
				t.Errorf("%s: %d recovery samples, want %d", eng, len(res.RecoveryTimes), len(spec.FailurePlan))
			}
		}
	})
	t.Run("autoscale", func(t *testing.T) {
		spec, err := ByName("autoscale")
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range spec.WithDefaults().Engines {
			res := runResult(t, spec.ForGolden(), eng)
			if res.ScaleUps == 0 {
				t.Errorf("%s: autoscale scenario never scaled up", eng)
			}
		}
	})
	t.Run("preempt", func(t *testing.T) {
		spec, err := ByName("preempt")
		if err != nil {
			t.Fatal(err)
		}
		preempted := 0
		for _, eng := range spec.WithDefaults().Engines {
			res := runResult(t, spec.ForGolden(), eng)
			preempted += res.Preempted
			if res.Dropped == 0 {
				t.Errorf("%s: admission-capped tier never dropped", eng)
			}
			total := 0
			for _, n := range res.PreemptedByTenant {
				total += n
			}
			if total != res.Preempted {
				t.Errorf("%s: per-tenant preemptions sum to %d, result says %d", eng, total, res.Preempted)
			}
		}
		if preempted == 0 {
			t.Error("no engine preempted in the preempt scenario")
		}
	})
}
