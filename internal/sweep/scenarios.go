package sweep

import (
	"fmt"

	"hetis/internal/metrics"
	"hetis/internal/scenario"
)

// ScenarioWindows is one (scenario, engine) run's windowed time series.
type ScenarioWindows struct {
	Scenario string
	Engine   string
	Table    *metrics.Table
}

// RunScenariosSink serves the scenarios on the pool, one job per
// (scenario, engine) pair, each through scenario.PrepareFleet with so, and
// merges their rows in the order given — engines in each spec's order —
// independent of completion order, so the output is byte-identical for
// any Options.Jobs value. so.Quick quarters trace durations and seed
// offsets every scenario's own seed. so.Stream measures through
// constant-memory streaming sinks (required for heavy scenarios like
// megascale to stay cheap), and so.Window > 0 additionally returns each
// pair's windowed time series, in the same pair order as the rows. The
// pairs run concurrently, so so.Build must be safe for concurrent use.
func RunScenariosSink(specs []scenario.Spec, seed int64, so scenario.Options, opts Options) (*metrics.Table, []ScenarioWindows, error) {
	type pair struct {
		spec scenario.Spec
		eng  string
	}
	var pairs []pair
	chaotic, healthy := 0, 0
	for _, spec := range specs {
		spec = scenario.Prepare(spec, so.Quick)
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
	so.Quick = false // applied above
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
			fr, err := scenario.PrepareFleet(p.spec, p.eng, so)
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
