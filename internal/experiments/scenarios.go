package experiments

import (
	"hetis/internal/metrics"
	"hetis/internal/scenario"
	"hetis/internal/sweep"
)

// Scenarios runs every registered serving scenario — bursty, diurnal,
// flash-crowd, closed-loop, multi-tenant — on its engines and reports
// goodput and SLO attainment per engine (and per tenant for mixed
// workloads). This is the production-facing counterpart of the paper's
// steady-rate tables: systems are ranked by how much traffic they serve
// within the latency objective, not by raw latency. It delegates to the
// pooled catalog runner so `-exp scenarios` and `-scenario all` share one
// implementation (and its quick/seed semantics).
func Scenarios(opts Options) (*metrics.Table, error) {
	// SuiteNames: heavy scenarios (megascale) are streaming-sink workloads,
	// not experiment tables; they run when named explicitly.
	specs, err := scenario.ByNames(scenario.SuiteNames())
	if err != nil {
		return nil, err
	}
	tab, _, err := sweep.RunScenariosSink(specs, opts.Seed, scenario.Options{Quick: opts.Quick}, sweep.Options{})
	return tab, err
}
