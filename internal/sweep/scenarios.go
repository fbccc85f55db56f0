package sweep

import (
	"fmt"

	"hetis/internal/metrics"
	"hetis/internal/scenario"
)

// RunScenarios serves the named scenarios on the pool, one job per
// (scenario, engine) pair, and merges their rows in catalog order —
// scenarios as given (or the non-heavy catalog, for "all"), engines in
// each spec's order — independent of completion order, so the output is
// byte-identical for any Options.Jobs value. quick quarters trace
// durations; seed offsets every scenario's built-in seed.
func RunScenarios(names []string, quick bool, seed int64, opts Options) (*metrics.Table, error) {
	tab, _, err := RunScenariosSink(names, quick, seed, false, 0, opts)
	return tab, err
}

// ScenarioWindows is one (scenario, engine) run's windowed time series.
type ScenarioWindows struct {
	Scenario string
	Engine   string
	Table    *metrics.Table
}

// RunScenariosSink is RunScenarios with sink selection: stream measures
// through constant-memory streaming sinks (required for heavy scenarios
// like megascale to stay cheap), and window > 0 additionally returns each
// pair's windowed time series, in the same deterministic pair order as the
// rows. "all" expands to the non-heavy catalog (scenario.SuiteNames);
// heavy scenarios run when named explicitly.
func RunScenariosSink(names []string, quick bool, seed int64, stream bool, window float64, opts Options) (*metrics.Table, []ScenarioWindows, error) {
	if len(names) == 1 && names[0] == "all" {
		names = scenario.SuiteNames()
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("sweep: no scenarios named")
	}
	type pair struct {
		spec scenario.Spec
		eng  string
	}
	var pairs []pair
	chaotic, healthy := 0, 0
	for _, name := range names {
		spec, err := scenario.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		spec = scenario.Prepare(spec, quick)
		spec.Seed += seed
		if spec.Chaotic() {
			chaotic++
		} else {
			healthy++
		}
		for _, eng := range spec.Engines {
			pairs = append(pairs, pair{spec: spec, eng: eng})
		}
	}
	// Chaotic scenarios append extra columns; one merged table cannot
	// carry both row shapes, so a batch must be all-chaotic or all-not.
	if chaotic > 0 && healthy > 0 {
		return nil, nil, fmt.Errorf("sweep: cannot mix chaotic and non-chaotic scenarios in one table (their columns differ); run them separately")
	}
	winByIdx := make([]*metrics.Table, len(pairs))
	jobs := make([]Job, len(pairs))
	for i, p := range pairs {
		key := p.spec.Name + "/" + p.eng
		jobs[i] = Job{Key: key, Run: func() (*metrics.Table, error) {
			fr, err := scenario.PrepareFleet(p.spec, p.eng,
				scenario.Options{Stream: stream, Window: window, ShardWorkers: opts.ShardWorkers})
			if err != nil {
				return nil, err
			}
			res, err := fr.Run(opts.ShardWorkers)
			if err != nil {
				return nil, err
			}
			if err := writeTrace(opts.TraceDir, key, res.Trace); err != nil {
				return nil, err
			}
			rows, wins, err := fr.Tables()
			winByIdx[i] = wins
			return rows, err
		}}
	}
	results, err := RunMany(jobs, opts)
	if err != nil {
		return nil, nil, err
	}
	tab := &metrics.Table{Header: scenario.HeaderFor(chaotic > 0)}
	var windows []ScenarioWindows
	for i, p := range pairs {
		tab.Rows = append(tab.Rows, results[i].Table.Rows...)
		if winByIdx[i] != nil {
			windows = append(windows, ScenarioWindows{Scenario: p.spec.Name, Engine: p.eng, Table: winByIdx[i]})
		}
	}
	return tab, windows, nil
}
