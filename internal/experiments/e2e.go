package experiments

import (
	"fmt"

	"hetis/internal/engine"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// sweepEntry is one dataset's rate sweep.
type sweepEntry struct {
	dataset string
	rates   []float64
}

// latencySweep reproduces the Figs. 8-10 experiment shape: normalized
// end-to-end latency (s/token) of the three systems across request rates
// for each dataset.
func latencySweep(m model.Config, entries []sweepEntry, opts Options) (*metrics.Table, error) {
	tab := &metrics.Table{Header: []string{
		"Dataset", "Rate(req/s)", "Splitwise(s/tok)", "Hexgen(s/tok)", "Hetis(s/tok)",
		"SW-done", "HG-done", "HT-done",
	}}
	dur := opts.duration(40)
	for _, e := range entries {
		dist, err := workload.ByName(e.dataset)
		if err != nil {
			return nil, err
		}
		for _, rate := range e.rates {
			reqs := workload.Poisson(dist, rate, dur, opts.seed(1000+int64(rate*10)))
			if len(reqs) == 0 {
				continue
			}
			res, err := serve(m, hardware.PaperCluster(), reqs, scenario.MeasurementHorizon(dur), "splitwise", "hexgen", "hetis")
			if err != nil {
				return nil, fmt.Errorf("%s rate %.1f: %w", e.dataset, rate, err)
			}
			tab.AddRow(e.dataset, rate,
				res[0].Recorder.Snapshot().NormLat.Mean,
				res[1].Recorder.Snapshot().NormLat.Mean,
				res[2].Recorder.Snapshot().NormLat.Mean,
				res[0].Completed, res[1].Completed, res[2].Completed)
		}
	}
	return tab, nil
}

// Fig8 reproduces Fig. 8: normalized latency across datasets, Llama-13B.
func Fig8(opts Options) (*metrics.Table, error) {
	return latencySweep(model.Llama13B, []sweepEntry{
		{"SG", []float64{3, 6, 9, 12, 15}},
		{"HE", []float64{15, 30, 45, 60, 75}},
		{"LB", []float64{3, 6, 9}},
	}, opts)
}

// Fig9 reproduces Fig. 9: normalized latency across datasets, OPT-30B.
func Fig9(opts Options) (*metrics.Table, error) {
	return latencySweep(model.OPT30B, []sweepEntry{
		{"SG", []float64{3, 6, 9, 12}},
		{"HE", []float64{15, 30, 45}},
		{"LB", []float64{2, 4, 6}},
	}, opts)
}

// Fig10 reproduces Fig. 10: normalized latency across datasets, Llama-70B.
func Fig10(opts Options) (*metrics.Table, error) {
	return latencySweep(model.Llama70B, []sweepEntry{
		{"SG", []float64{1, 2, 3}},
		{"HE", []float64{3, 6, 9, 12}},
		{"LB", []float64{0.4, 0.8, 1.2, 1.6}},
	}, opts)
}

// Fig11 reproduces Fig. 11: the maximum available KV-cache space of each
// system per model and dataset.
func Fig11(opts Options) (*metrics.Table, error) {
	tab := &metrics.Table{Header: []string{"Model", "Dataset", "Hetis(GB)", "Hexgen(GB)", "Splitwise(GB)"}}
	dur := opts.duration(30)
	for _, m := range []model.Config{model.Llama13B, model.OPT30B, model.Llama70B} {
		for _, ds := range []string{"SG", "HE", "LB"} {
			dist, err := workload.ByName(ds)
			if err != nil {
				return nil, err
			}
			reqs := workload.Poisson(dist, 4, dur, opts.seed(77))
			row := []any{m.Name, ds}
			for _, name := range []string{"hetis", "hexgen", "splitwise"} {
				// Build the engine through the job and read its KV space
				// without serving the trace.
				var capacity int64
				_, err := scenario.Job{Model: m, Cluster: hardware.PaperCluster(), Engine: name, Trace: reqs,
					Build: func(name string, cfg engine.Config, reqs []workload.Request) (engine.Engine, error) {
						eng, err := engine.NewByName(name, cfg, reqs)
						if err == nil {
							capacity = eng.CacheCapacity()
						}
						return eng, err
					}}.Prepare()
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", m.Name, ds, err)
				}
				row = append(row, float64(capacity)/1e9)
			}
			tab.AddRow(row...)
		}
	}
	return tab, nil
}

// fig12Rates are the unsaturated operating points of §7.2 for Llama-70B.
var fig12Rates = map[string]float64{"SG": 1.5, "HE": 6, "LB": 0.8}

// runFig12Setting executes the three engines at the Fig. 12 operating
// point for one dataset.
func runFig12Setting(ds string, opts Options) (het, hex, sw *engine.Result, err error) {
	dur := opts.duration(40)
	dist, err := workload.ByName(ds)
	if err != nil {
		return nil, nil, nil, err
	}
	reqs := workload.Poisson(dist, fig12Rates[ds], dur, opts.seed(2100))
	res, err := serve(model.Llama70B, hardware.PaperCluster(), reqs, scenario.MeasurementHorizon(dur), "hetis", "hexgen", "splitwise")
	if err != nil {
		return nil, nil, nil, err
	}
	return res[0], res[1], res[2], nil
}

// Fig12 reproduces Fig. 12: P95 TTFT and TPOT for Llama-70B, normalized to
// Hetis (the paper plots normalized time with Hetis lowest).
func Fig12(opts Options) (*metrics.Table, error) {
	tab := &metrics.Table{Header: []string{"Metric", "Dataset", "Hetis", "Hexgen", "Splitwise"}}
	for _, ds := range []string{"SG", "HE", "LB"} {
		het, hex, sw, err := runFig12Setting(ds, opts)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", ds, err)
		}
		hetS, hexS, swS := het.Recorder.Snapshot(), hex.Recorder.Snapshot(), sw.Recorder.Snapshot()
		tab.AddRow("TTFT-P95", ds, 1.0, hexS.TTFT.P95/hetS.TTFT.P95, swS.TTFT.P95/hetS.TTFT.P95)
		tab.AddRow("TPOT-P95", ds, 1.0, hexS.TPOT.P95/hetS.TPOT.P95, swS.TPOT.P95/hetS.TPOT.P95)
	}
	return tab, nil
}

// Fig13 reproduces Fig. 13: P95 per-iteration execution latency of the
// decode MLP (dense) and Attention modules for Llama-70B, normalized to
// Hetis.
func Fig13(opts Options) (*metrics.Table, error) {
	tab := &metrics.Table{Header: []string{"Module", "Dataset", "Hetis", "Hexgen", "Splitwise"}}
	p95 := func(s engine.ModuleSeries) float64 {
		return metrics.SummarizeValues(s.Values()).P95
	}
	for _, ds := range []string{"SG", "HE", "LB"} {
		het, hex, sw, err := runFig12Setting(ds, opts)
		if err != nil {
			return nil, fmt.Errorf("fig13 %s: %w", ds, err)
		}
		base := p95(het.DenseTimes)
		tab.AddRow("MLP", ds, 1.0, p95(hex.DenseTimes)/base, p95(sw.DenseTimes)/base)
		base = p95(het.AttnTimes)
		tab.AddRow("Attention", ds, 1.0, p95(hex.AttnTimes)/base, p95(sw.AttnTimes)/base)
	}
	return tab, nil
}

// Fig16a reproduces Fig. 16(a): sensitivity of per-token latency to the
// re-dispatching threshold Θ, normalized to the default Θ = 0.5.
func Fig16a(opts Options) (*metrics.Table, error) {
	tab := &metrics.Table{Header: []string{"Theta", "SG", "HE", "LB"}}
	dur := opts.duration(40)
	thetas := []float64{0.3, 0.4, 0.5, 0.6, 0.7}

	// Latency at each theta per dataset, on the memory-pressured small
	// cluster where re-dispatching actually fires.
	lat := map[string][]float64{}
	for _, ds := range []string{"SG", "HE", "LB"} {
		rate := map[string]float64{"SG": 6, "HE": 30, "LB": 2.5}[ds]
		dist, err := workload.ByName(ds)
		if err != nil {
			return nil, err
		}
		reqs := workload.Poisson(dist, rate, dur, opts.seed(1600))
		for _, theta := range thetas {
			res, err := runSmall(reqs, scenario.MeasurementHorizon(60), func(cfg *engine.Config) { cfg.Theta = theta })
			if err != nil {
				return nil, fmt.Errorf("fig16a %s theta %.1f: %w", ds, theta, err)
			}
			lat[ds] = append(lat[ds], res.Recorder.Snapshot().NormLat.Mean)
		}
	}
	for i, theta := range thetas {
		row := []any{theta}
		for _, ds := range []string{"SG", "HE", "LB"} {
			base := lat[ds][2] // Θ = 0.5
			row = append(row, lat[ds][i]/base)
		}
		tab.AddRow(row...)
	}
	return tab, nil
}

// Fig16b reproduces Fig. 16(b): per-token latency under profiling errors of
// up to ±20% in each fitted parameter, normalized to the exact profile.
func Fig16b(opts Options) (*metrics.Table, error) {
	dur := opts.duration(40)
	reqs := workload.Poisson(workload.ShareGPT, 5, dur, opts.seed(1700))

	baseRes, err := runSmall(reqs, scenario.MeasurementHorizon(60), nil)
	if err != nil {
		return nil, err
	}
	base := baseRes.Recorder.Snapshot().NormLat.Mean
	// run serves the trace with one parameter of the engine's fitted
	// profile scaled by factor. Instances read the profile at Run, so the
	// engine needs no rebuild.
	run := func(param string, factor float64) (float64, error) {
		res, err := scenario.Job{Model: model.Llama13B, Cluster: smallCluster(), Engine: "hetis", Trace: reqs,
			Horizon: scenario.MeasurementHorizon(60),
			Build: func(_ string, cfg engine.Config, _ []workload.Request) (engine.Engine, error) {
				h, err := engine.NewHetis(cfg, smallPlan(model.Llama13B))
				if err != nil {
					return nil, err
				}
				perturbed, err := h.Profile().PerturbParam(param, factor)
				if err != nil {
					return nil, err
				}
				h.SetProfile(perturbed)
				return h, nil
			}}.Run()
		if err != nil {
			return 0, err
		}
		return res.Recorder.Snapshot().NormLat.Mean, nil
	}

	tab := &metrics.Table{Header: []string{"Error(%)", "a", "b", "c", "gamma", "beta"}}
	for _, pct := range []float64{5, 10, 15, 20} {
		row := []any{pct}
		for _, param := range []string{"a", "b", "c", "gamma", "beta"} {
			lat, err := run(param, 1+pct/100)
			if err != nil {
				return nil, fmt.Errorf("fig16b %s %+.0f%%: %w", param, pct, err)
			}
			row = append(row, lat/base)
		}
		tab.AddRow(row...)
	}
	return tab, nil
}
