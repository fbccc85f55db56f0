package engine_test

import (
	"fmt"
	"testing"

	"hetis/internal/engine"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// TestHetisCachingTwinTables is the solver caching layer's contract at
// scenario scale: Hetis with every dispatcher's caches off (placement
// memo, placement-row patching, the relaxation's lower-bound skip) must
// render byte-identical tables to the default run. The caches may skip
// work but never change a decision, which needs the §5.3.1 relaxation's
// value to be independent of which path computed it.
func TestHetisCachingTwinTables(t *testing.T) {
	if testing.Short() {
		t.Skip("24 scenario-scale Hetis runs")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector")
	}
	uncached := func(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error) {
		return engine.NewByName(name, engine.WithoutLPCaching(cfg), reqs)
	}
	for _, name := range []string{"steady", "failover", "multitenant", "bursty"} {
		for _, seed := range []int64{2, 3, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				spec, err := scenario.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				spec.Traffic.Rate = 4
				spec.Duration = 3000
				spec.Seed = seed
				cached, err := scenario.RunEngine(spec, "hetis", scenario.Options{})
				if err != nil {
					t.Fatal(err)
				}
				plain, err := scenario.RunEngine(spec, "hetis", scenario.Options{Build: uncached})
				if err != nil {
					t.Fatal(err)
				}
				if a, b := cached.CSV(), plain.CSV(); a != b {
					t.Errorf("caching changed the table:\n--- cached\n%s--- cache-free\n%s", a, b)
				}
			})
		}
	}
}
