package experiments

import (
	"fmt"

	"hetis/internal/engine"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// AblationHetero quantifies the value of the low-end GPUs themselves: Hetis
// over a premium-scarce heterogeneous cluster (one A100 plus the 3090/P100
// leftovers) vs a vLLM-style reference that serves on the lone A100 only.
// With abundant premium GPUs a homogeneous deployment wins outright (a 13B
// model on 4×A100 needs no help); the heterogeneous machinery pays off
// exactly when high-end supply is the constraint — the production setting
// §1 motivates.
func AblationHetero(opts Options) (*metrics.Table, error) {
	m := model.Llama13B
	dur := opts.duration(40)
	tab := &metrics.Table{Header: []string{
		"Rate(req/s)", "vLLM-A100(s/tok)", "Hetis(s/tok)", "vLLM-done", "Hetis-done",
		"vLLM-cache(GB)", "Hetis-cache(GB)",
	}}
	for _, rate := range []float64{4, 8, 12, 16} {
		reqs := workload.Poisson(workload.ShareGPT, rate, dur, opts.seed(4000+int64(rate)))
		cluster := hardware.NewBuilder(hardware.LAN100G).
			AddHost("a100", hardware.PCIe4x16, hardware.A100, 1).
			AddHost("3090-0", hardware.PCIe3x16, hardware.RTX3090, 2).
			AddHost("3090-1", hardware.PCIe3x16, hardware.RTX3090, 2).
			AddHost("p100", hardware.PCIe3x16, hardware.P100, 4).
			MustBuild()
		cfg := engine.DefaultConfig(m, cluster)

		ref, err := engine.NewVLLM(cfg)
		if err != nil {
			return nil, fmt.Errorf("vllm: %w", err)
		}
		plan, err := engine.PlanForWorkload(cfg, reqs)
		if err != nil {
			return nil, err
		}
		het, err := engine.NewHetis(cfg, plan)
		if err != nil {
			return nil, err
		}
		horizon := dur * 12
		refRes, err := ref.Run(reqs, horizon)
		if err != nil {
			return nil, err
		}
		hetRes, err := het.Run(reqs, horizon)
		if err != nil {
			return nil, err
		}
		tab.AddRow(rate,
			refRes.Recorder.Snapshot().NormLat.Mean,
			hetRes.Recorder.Snapshot().NormLat.Mean,
			refRes.Completed, hetRes.Completed,
			float64(refRes.CacheCapacity)/1e9,
			float64(hetRes.CacheCapacity)/1e9)
	}
	return tab, nil
}
