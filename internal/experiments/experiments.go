// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment is a named function producing a text
// table with the same rows/series the paper reports; the package's tests
// check each table against the trends and bands the paper reports.
// Experiments are deterministic given their built-in seeds.
package experiments

import (
	"fmt"
	"sort"

	"hetis/internal/engine"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/scenario"
	"hetis/internal/sweep"
	"hetis/internal/workload"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks trace durations for smoke tests and benchmarks.
	Quick bool
	// Seed offsets every built-in trace seed, so sweeps can draw
	// independent replicas of the same experiment; 0 keeps the paper's
	// seeds. Runners are pure functions of these options — all randomness
	// flows through the seeds, and no runner touches shared mutable state
	// — which is what lets RunMany execute them concurrently.
	Seed int64
}

// seed derives a trace seed from an experiment's built-in base.
func (o Options) seed(base int64) int64 { return base + o.Seed }

// Runner is one experiment entry point.
type Runner func(Options) (*metrics.Table, error)

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"table1":     Table1,
	"fig2":       Fig2,
	"fig5":       Fig5,
	"fig7":       Fig7,
	"fig8":       Fig8,
	"fig9":       Fig9,
	"fig10":      Fig10,
	"fig11":      Fig11,
	"fig12":      Fig12,
	"fig13":      Fig13,
	"fig14":      Fig14,
	"fig15a":     Fig15a,
	"fig15b":     Fig15b,
	"fig16a":     Fig16a,
	"fig16b":     Fig16b,
	"search":     SearchOverhead,
	"accuracy":   ModelAccuracy,
	"throughput": Throughput,
	"scenarios":  Scenarios,
	// Ablations beyond the paper's figures (ablations.go).
	"ablation-split":     AblationSplit,
	"ablation-delta":     AblationDelta,
	"ablation-dispatch":  AblationDispatch,
	"ablation-migration": AblationMigration,
	"ablation-dp":        AblationDP,
	"ablation-hetero":    AblationHetero,
	"ablation-search":    AblationSearch,
}

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, opts Options) (*metrics.Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	return r(opts)
}

// RunMany executes the given experiments concurrently on a sweep pool and
// returns one result per id, ordered by id independent of completion
// order. Unknown ids fail fast before anything runs. The joined error
// aggregates every failed runner; successful tables are still returned
// alongside it.
func RunMany(ids []string, opts Options, pool sweep.Options) ([]sweep.Result, error) {
	ids = append([]string(nil), ids...)
	sort.Strings(ids)
	jobs := make([]sweep.Job, len(ids))
	for i, id := range ids {
		r, ok := registry[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
		}
		jobs[i] = sweep.Job{Key: id, Run: func() (*metrics.Table, error) {
			return r(opts)
		}}
	}
	return sweep.RunMany(jobs, pool)
}

// duration scales a trace length by Quick mode.
func (o Options) duration(full float64) float64 {
	if o.Quick {
		return full / 4
	}
	return full
}

// serve runs the trace on each named engine over cluster through
// scenario.Job, measured to horizon; the results follow names.
func serve(m model.Config, cluster *hardware.Cluster, reqs []workload.Request, horizon float64, names ...string) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(names))
	for i, name := range names {
		res, err := scenario.Job{Model: m, Cluster: cluster, Engine: name, Trace: reqs, Horizon: horizon}.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[i] = res
	}
	return out, nil
}
