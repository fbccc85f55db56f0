package experiments

import (
	"fmt"

	"hetis/internal/engine"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/parallelizer"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// smallCluster reproduces the Fig. 14/15 ablation setup: one A100 primary
// plus two RTX 3090 attention workers on separate hosts.
func smallCluster() *hardware.Cluster {
	return hardware.NewBuilder(hardware.LAN100G).
		AddHost("a100", hardware.PCIe4x16, hardware.A100, 1).
		AddHost("3090-a", hardware.PCIe3x16, hardware.RTX3090, 1).
		AddHost("3090-b", hardware.PCIe3x16, hardware.RTX3090, 1).
		MustBuild()
}

// smallPlan pins the Fig. 14 deployment: the A100 is the sole primary
// worker holding every layer; both 3090s are attention workers.
func smallPlan(m model.Config) *parallelizer.Plan {
	return &parallelizer.Plan{Instances: []parallelizer.Instance{{
		Stages: []parallelizer.Stage{{
			Spec:    hardware.A100,
			Devices: []hardware.DeviceID{0},
			TP:      1, PP: 1,
			Layers: m.Layers,
		}},
		AttentionWorkers: []hardware.DeviceID{1, 2},
	}}}
}

// runSmall serves a trace on the small cluster with the pinned plan,
// measured to horizon, after tune (if set) adjusts the default config.
func runSmall(reqs []workload.Request, horizon float64, tune func(*engine.Config)) (*engine.Result, error) {
	return scenario.Job{Model: model.Llama13B, Cluster: smallCluster(), Engine: "hetis", Trace: reqs, Horizon: horizon,
		Build: func(_ string, cfg engine.Config, _ []workload.Request) (engine.Engine, error) {
			if tune != nil {
				tune(&cfg)
			}
			return engine.NewHetis(cfg, smallPlan(model.Llama13B))
		}}.Run()
}

// Fig14 reproduces Fig. 14: per-device cache utilization and head counts
// over time under the rps 5 → 0 → 2.5 → 0 arrival pattern (Llama-13B, one
// A100 primary, two 3090 attention workers).
func Fig14(opts Options) (*metrics.Table, error) {
	segs := []workload.RateSegment{
		{Rate: 5, Duration: 25},
		{Rate: 0, Duration: 25},
		{Rate: 2.5, Duration: 25},
		{Rate: 0, Duration: 25},
	}
	if opts.Quick {
		for i := range segs {
			segs[i].Duration = 10
		}
	}
	reqs := workload.PiecewiseRate(workload.ShareGPT, segs, opts.seed(1400))
	res, err := runSmall(reqs, scenario.MeasurementHorizon(100), func(cfg *engine.Config) { cfg.SampleEvery = 5 })
	if err != nil {
		return nil, err
	}
	tab := &metrics.Table{Header: []string{
		"Time(s)", "A100-cache(%)", "3090a-cache(%)", "3090b-cache(%)",
		"A100-heads", "3090a-heads", "3090b-heads",
	}}
	a100c := res.CacheSeries[0]
	c0 := res.CacheSeries[1]
	c1 := res.CacheSeries[2]
	h0 := res.HeadSeries[0]
	h1 := res.HeadSeries[1]
	h2 := res.HeadSeries[2]
	if a100c == nil || c0 == nil || c1 == nil {
		return nil, fmt.Errorf("fig14: missing sampled series")
	}
	end := 100.0
	if opts.Quick {
		end = 40
	}
	for t := 5.0; t <= end; t += 5 {
		tab.AddRow(t, a100c.At(t), c0.At(t), c1.At(t), h0.At(t), h1.At(t), h2.At(t))
	}
	return tab, nil
}

// Fig15a reproduces Fig. 15(a): the benefit of §5.3 re-dispatching over a
// plain LIFO eviction policy, measured as mean and P95 per-output-token
// latency on a memory-pressured ShareGPT run at rate 5.
func Fig15a(opts Options) (*metrics.Table, error) {
	// This experiment needs sustained pressure to trigger §5.3; it always
	// runs the full 60-second trace (still sub-second wall time).
	dur := 60.0
	// Rate 6 pressures the small cluster's memory the way the paper's
	// rate-5 run pressures its larger one: §5.3 re-dispatching fires
	// regularly while Hetis still completes the whole trace.
	reqs := workload.Poisson(workload.ShareGPT, 6, dur, opts.seed(1500))

	withRd, err := runSmall(reqs, scenario.MeasurementHorizon(60), nil)
	if err != nil {
		return nil, fmt.Errorf("fig15a hetis: %w", err)
	}
	lifo, err := runSmall(reqs, scenario.MeasurementHorizon(60), func(cfg *engine.Config) { cfg.DisableRedispatch = true })
	if err != nil {
		return nil, fmt.Errorf("fig15a lifo: %w", err)
	}
	hn := withRd.Recorder.Snapshot().NormLat
	ln := lifo.Recorder.Snapshot().NormLat
	tab := &metrics.Table{Header: []string{"Metric", "Hetis", "LIFO", "LIFO/Hetis"}}
	tab.AddRow("mean(s/tok)", hn.Mean, ln.Mean, ln.Mean/hn.Mean)
	tab.AddRow("p95(s/tok)", hn.P95, ln.P95, ln.P95/hn.P95)
	tab.AddRow("completed", withRd.Completed, lifo.Completed, float64(lifo.Completed)/float64(withRd.Completed))
	tab.AddRow("evictions", withRd.Evictions, lifo.Evictions, 0.0)
	tab.AddRow("migrations", withRd.Migrations, lifo.Migrations, 0.0)
	return tab, nil
}
