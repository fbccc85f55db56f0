package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"hetis/internal/engine"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// resultTap wraps an engine to keep the Result of its run.
type resultTap struct {
	engine.Engine
	res *engine.Result
}

func (t *resultTap) Run(reqs []workload.Request, horizon float64) (*engine.Result, error) {
	res, err := t.Engine.Run(reqs, horizon)
	t.res = res
	return res, err
}

// TestHetisFastStepTwinTables is the batched decode step's contract at
// scenario scale: Hetis with every decode step forced onto the
// per-request loop must render byte-identical tables to the default run,
// which advances the batch at once whenever it may. The default run also
// checks, on every batched step, that only the running requests that do
// not finish advance (checkAdvanceSet), and must have taken the batched
// step at least once.
func TestHetisFastStepTwinTables(t *testing.T) {
	if testing.Short() {
		t.Skip("30 scenario-scale Hetis runs")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector")
	}
	perRequest := func(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error) {
		return engine.NewByName(name, engine.WithPerRequestSteps(cfg), reqs)
	}
	for _, name := range []string{"steady", "failover", "multitenant", "bursty", "preempt"} {
		for _, seed := range []int64{2, 3, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				spec, err := scenario.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				if spec.Traffic.Kind != scenario.KindMMPP { // an MMPP has no base rate
					spec.Traffic.Rate = 4
				}
				spec.Duration = 3000
				spec.Seed = seed
				var once sync.Once
				tap := &resultTap{}
				checked := func(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error) {
					cfg = engine.WithStepCheck(cfg, func(err error) {
						if err != nil {
							once.Do(func() { t.Errorf("batched decode step: %v", err) })
						}
					})
					e, err := engine.NewByName(name, cfg, reqs)
					tap.Engine = e
					return tap, err
				}
				batched, err := scenario.RunEngine(spec, "hetis", scenario.Options{Build: checked})
				if err != nil {
					t.Fatal(err)
				}
				plain, err := scenario.RunEngine(spec, "hetis", scenario.Options{Build: perRequest})
				if err != nil {
					t.Fatal(err)
				}
				if a, b := batched.CSV(), plain.CSV(); a != b {
					t.Errorf("the batched step changed the table:\n--- batched\n%s--- per request\n%s", a, b)
				}
				steps, slow := tap.res.DecodeSteps, tap.res.PerRequestSteps
				t.Logf("%d decode steps, %d per request", steps, slow)
				if slow >= steps {
					t.Errorf("no batched step in %d decode steps", steps)
				}
			})
		}
	}
}
