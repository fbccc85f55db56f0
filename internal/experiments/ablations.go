package experiments

import (
	"fmt"

	"hetis/internal/engine"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// The ablations quantify design choices beyond the paper's own figures:
// the splitting dimension, the Δ exclusion threshold, LP vs greedy
// dispatching, migration overlap, and data-parallel fan-out.

// AblationSplit extends Fig. 5 with a batch-wise series: splitting whole
// requests across devices moves no per-token traffic but forfeits
// fine-grained balance, which the table shows as the per-device load spread
// each scheme can achieve for a mixed batch.
func AblationSplit(Options) (*metrics.Table, error) {
	est, err := perf.New(model.Llama70B)
	if err != nil {
		return nil, err
	}
	cfg := model.Llama70B
	link := hardware.LAN100G
	const batch = 64

	tab := &metrics.Table{Header: []string{
		"Scheme", "Granularity(heads)", "TrafficPerStep(ms)", "LoadQuantum(%)",
	}}
	// Head-wise: quantum = one KV head group; traffic per Eq. 4.
	headQuantum := float64(cfg.GroupRatio()) / float64(cfg.Heads) * 100
	headTraffic := perf.P2PTime(link, int64(batch)*est.HeadScatterBytes(cfg.Heads/4)) * 1e3
	tab.AddRow("head-wise", cfg.GroupRatio(), headTraffic, headQuantum)

	// Sequence-wise: quantum = one token's worth of every head; traffic
	// replicates full q.
	seqTraffic := perf.P2PTime(link, int64(batch)*est.SeqScatterBytes()) * 1e3
	tab.AddRow("seq-wise", cfg.Heads, seqTraffic, 100.0/1000) // per-token granularity of a 1000-token ctx

	// Batch-wise: quantum = a whole request (all heads, all tokens); only
	// the final hidden state moves, but the load unit is an entire
	// request.
	batchTraffic := perf.P2PTime(link, cfg.HiddenStateBytes(batch)) * 1e3
	tab.AddRow("batch-wise", cfg.Heads, batchTraffic, 100.0)
	return tab, nil
}

// AblationDelta sweeps the §4.1 exclusion threshold Δ and reports how many
// GPUs each value demotes to attention workers and the modeled costs.
func AblationDelta(Options) (*metrics.Table, error) {
	cluster := hardware.PaperCluster()
	est, err := perf.New(model.Llama70B)
	if err != nil {
		return nil, err
	}
	wl := parallelizer.DefaultWorkload()
	tab := &metrics.Table{Header: []string{
		"Delta", "AttentionWorkers", "DecodeStep(ms)", "Prefill(ms)", "Cache(GB)",
	}}
	for _, delta := range []float64{0, 0.01, 0.02, 0.05, 0.10, 0.25, 0.50} {
		opts := parallelizer.DefaultOptions()
		opts.Delta = delta
		plan, err := parallelizer.Search(cluster, est, wl, opts)
		if err != nil {
			return nil, fmt.Errorf("delta %.2f: %w", delta, err)
		}
		tab.AddRow(delta, plan.NumAttentionWorkers(),
			plan.DecodeStepCost*1e3, plan.PrefillCost*1e3,
			float64(plan.CacheCapacity)/1e9)
	}
	return tab, nil
}

// AblationDispatch compares the Eq. 7 LP dispatcher against the greedy
// longest-processing-time heuristic on a loaded trace.
func AblationDispatch(opts Options) (*metrics.Table, error) {
	dur := 40.0 // fixed: the comparison needs the loaded regime
	reqs := workload.Poisson(workload.ShareGPT, 8, dur, opts.seed(1900))

	lpRes, err := runSmall(reqs, scenario.MeasurementHorizon(60), nil)
	if err != nil {
		return nil, fmt.Errorf("lp: %w", err)
	}
	grRes, err := runSmall(reqs, scenario.MeasurementHorizon(60), func(cfg *engine.Config) { cfg.GreedyDispatch = true })
	if err != nil {
		return nil, fmt.Errorf("greedy: %w", err)
	}
	tab := &metrics.Table{Header: []string{"Metric", "LP", "Greedy", "Greedy/LP"}}
	ln, gn := lpRes.Recorder.Snapshot().NormLat, grRes.Recorder.Snapshot().NormLat
	tab.AddRow("mean(s/tok)", ln.Mean, gn.Mean, gn.Mean/ln.Mean)
	tab.AddRow("p95(s/tok)", ln.P95, gn.P95, gn.P95/ln.P95)
	tab.AddRow("completed", lpRes.Completed, grRes.Completed,
		float64(grRes.Completed)/float64(lpRes.Completed))
	return tab, nil
}

// AblationMigration compares §6's low-priority-stream (overlapped) cache
// migration against blocking migration. Memory-pressure dynamics are
// chaotic run to run, so the table averages several seeded traces.
func AblationMigration(opts Options) (*metrics.Table, error) {
	// Needs sustained memory pressure; always run the full-length trace
	// (quick mode trims the seed count instead).
	dur := 60.0
	seeds := []int64{2000, 2001, 2002, 2003}
	if opts.Quick {
		seeds = seeds[:2]
	}

	var meanOver, meanBlock, p95Over, p95Block float64
	var migOver, migBlock int
	for _, seed := range seeds {
		reqs := workload.Poisson(workload.ShareGPT, 6, dur, opts.seed(seed))
		over, err := runSmall(reqs, scenario.MeasurementHorizon(60), nil)
		if err != nil {
			return nil, err
		}
		block, err := runSmall(reqs, scenario.MeasurementHorizon(60), func(cfg *engine.Config) { cfg.BlockingMigration = true })
		if err != nil {
			return nil, err
		}
		on, bn := over.Recorder.Snapshot().NormLat, block.Recorder.Snapshot().NormLat
		meanOver += on.Mean
		meanBlock += bn.Mean
		p95Over += on.P95
		p95Block += bn.P95
		migOver += over.Migrations
		migBlock += block.Migrations
	}
	n := float64(len(seeds))
	tab := &metrics.Table{Header: []string{"Metric", "Overlapped", "Blocking", "Blocking/Overlapped"}}
	tab.AddRow("mean(s/tok)", meanOver/n, meanBlock/n, meanBlock/meanOver)
	tab.AddRow("p95(s/tok)", p95Over/n, p95Block/n, p95Block/p95Over)
	tab.AddRow("migrations/run", float64(migOver)/n, float64(migBlock)/n, 0.0)
	return tab, nil
}

// AblationDP forces the data-parallel instance count and reports the
// latency/capacity trade-off the planner's cache-tolerance selection
// navigates.
func AblationDP(Options) (*metrics.Table, error) {
	cluster := hardware.PaperCluster()
	est, err := perf.New(model.Llama13B)
	if err != nil {
		return nil, err
	}
	wl := parallelizer.DefaultWorkload()
	tab := &metrics.Table{Header: []string{
		"Instances", "DecodeStep(ms)", "Prefill(ms)", "Cache(GB)", "AttnWorkers",
	}}
	for _, d := range []int{1, 2, 4} {
		opts := parallelizer.DefaultOptions()
		opts.ForceInstances = d
		plan, err := parallelizer.Search(cluster, est, wl, opts)
		if err != nil {
			tab.AddRow(d, "infeasible", "", "", "")
			continue
		}
		tab.AddRow(d, plan.DecodeStepCost*1e3, plan.PrefillCost*1e3,
			float64(plan.CacheCapacity)/1e9, plan.NumAttentionWorkers())
	}
	return tab, nil
}

// AblationSearch compares the paper's Cp-greedy exclusion heuristic with
// the extended tier-suffix search (comm-aware primary-set selection), both
// as modeled objectives and end to end on a ShareGPT trace.
func AblationSearch(opts Options) (*metrics.Table, error) {
	dur := opts.duration(40)
	reqs := workload.Poisson(workload.ShareGPT, 8, dur, opts.seed(2200))
	cluster := hardware.PaperCluster()
	tab := &metrics.Table{Header: []string{
		"Model", "Variant", "AttnWorkers", "Objective(s)", "E2E mean(s/tok)",
	}}
	for _, m := range []model.Config{model.Llama13B, model.Llama70B} {
		for _, ext := range []bool{false, true} {
			popts := parallelizer.DefaultOptions()
			popts.ExtendedSearch = ext
			wl := parallelizer.DefaultWorkload()
			est, err := perf.New(m)
			if err != nil {
				return nil, err
			}
			plan, err := parallelizer.Search(cluster, est, wl, popts)
			if err != nil {
				return nil, fmt.Errorf("search ext=%v: %w", ext, err)
			}
			res, err := scenario.Job{Model: m, Cluster: cluster, Engine: "hetis", Trace: reqs,
				Horizon: scenario.MeasurementHorizon(dur),
				Build: func(_ string, cfg engine.Config, _ []workload.Request) (engine.Engine, error) {
					return engine.NewHetis(cfg, plan)
				}}.Run()
			if err != nil {
				return nil, err
			}
			variant := "cp-greedy"
			if ext {
				variant = "extended"
			}
			tab.AddRow(m.Name, variant, plan.NumAttentionWorkers(),
				plan.Objective, res.Recorder.Snapshot().NormLat.Mean)
		}
	}
	return tab, nil
}
