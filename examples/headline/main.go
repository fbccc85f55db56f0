// Headline: the abstract's throughput claim, live, in the setting the
// paper's introduction motivates — premium GPUs are scarce (one A100) and
// the cluster is padded with leftovers (four 3090s, four P100s). Ladders
// the request rate and prints where each of the four systems — Hetis,
// Splitwise, HexGen, and a vLLM reference using only the lone A100 —
// stops sustaining the latency SLO.
package main

import (
	"fmt"
	"log"

	"hetis"
)

const slo = 0.25 // seconds per output token

func main() {
	m := hetis.Llama13B
	const dur = 40.0
	rates := []float64{3, 6, 9, 12, 15, 18}

	fmt.Printf("%-8s %-12s %-12s %-12s %-12s  (mean s/token; X = SLO %.2f missed)\n",
		"rate", "vllm-a100", "splitwise", "hexgen", "hetis", slo)

	for _, rate := range rates {
		reqs := hetis.PoissonTrace(hetis.ShareGPT, rate, dur, int64(500+rate))
		cluster, err := hetis.NewClusterBuilder(hetis.LAN100G).
			AddHost("a100", hetis.PCIe4x16, hetis.A100, 1).
			AddHost("3090-0", hetis.PCIe3x16, hetis.RTX3090, 2).
			AddHost("3090-1", hetis.PCIe3x16, hetis.RTX3090, 2).
			AddHost("p100", hetis.PCIe3x16, hetis.P100, 4).
			Build()
		if err != nil {
			log.Fatal(err)
		}
		cfg := hetis.DefaultEngineConfig(m, cluster)

		engines := map[string]hetis.Engine{}
		if engines["vllm-a100"], err = hetis.NewVLLMEngine(cfg); err != nil {
			log.Fatal(err)
		}
		if engines["splitwise"], err = hetis.NewSplitwiseEngine(cfg); err != nil {
			log.Fatal(err)
		}
		if engines["hexgen"], err = hetis.NewHexGenEngine(cfg); err != nil {
			log.Fatal(err)
		}
		// Use the extended primary-set search (comm-aware tier selection);
		// see the ablation-search experiment for its effect.
		popts := hetis.DefaultPlanOptions()
		popts.ExtendedSearch = true
		wl := hetis.PlanWorkload{DecodeBatch: 48, AvgContext: 600, PrefillBatch: 4, AvgPrompt: 400, AvgOutput: 240}
		plan, err := hetis.SearchPlan(cluster, m, wl, popts)
		if err != nil {
			log.Fatal(err)
		}
		if engines["hetis"], err = hetis.NewHetisEngine(cfg, plan); err != nil {
			log.Fatal(err)
		}

		cell := func(name string) string {
			res, err := engines[name].Run(reqs, dur*8)
			if err != nil {
				log.Fatal(err)
			}
			lat := res.Recorder.Snapshot().NormLat.Mean
			mark := ""
			if lat > slo || res.Completed < len(reqs) {
				mark = " X"
			}
			return fmt.Sprintf("%.3f%s", lat, mark)
		}
		fmt.Printf("%-8.0f %-12s %-12s %-12s %-12s\n",
			rate, cell("vllm-a100"), cell("splitwise"), cell("hexgen"), cell("hetis"))
	}
	fmt.Println("\nWith premium GPUs scarce, the lone-A100 reference hits its KV-cache")
	fmt.Println("ceiling first; Hetis keeps the SLO deepest into the ladder by pooling")
	fmt.Println("the leftovers' memory and attention compute (paper: up to 2.25x rate).")
}
