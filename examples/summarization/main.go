// Summarization: serve a LongBench-like long-context workload on a small,
// memory-constrained cluster and watch Hetis' §5.3 machinery — head
// re-dispatching, cache migration, and device-aware eviction — keep the
// cluster serving. Also contrasts against the plain-LIFO ablation.
package main

import (
	"fmt"
	"log"

	"hetis"
)

func main() {
	// One A100 primary, two RTX 3090 attention workers: the Fig. 14/15
	// ablation setup, where long contexts exhaust memory quickly.
	cluster, err := hetis.NewClusterBuilder(hetis.LAN100G).
		AddHost("a100", hetis.PCIe4x16, hetis.A100, 1).
		AddHost("3090-a", hetis.PCIe3x16, hetis.RTX3090, 1).
		AddHost("3090-b", hetis.PCIe3x16, hetis.RTX3090, 1).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	reqs := hetis.PoissonTrace(hetis.LongBench, 1.5, 60, 7)
	fmt.Printf("cluster: %s\ntrace:   %d long-context requests\n\n", cluster, len(reqs))

	run := func(disableRedispatch bool) *hetis.Result {
		cfg := hetis.DefaultEngineConfig(hetis.Llama13B, cluster)
		cfg.DisableRedispatch = disableRedispatch
		plan, err := hetis.PlanDeployment(cfg, reqs)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := hetis.NewHetisEngine(cfg, plan)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(reqs, 3600)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	full := run(false)
	lifo := run(true)

	show := func(name string, r *hetis.Result) {
		n := r.Recorder.Snapshot().NormLat
		fmt.Printf("%-18s mean %6.1f ms/tok  p95 %6.1f ms/tok  evictions %3d  migrations %3d (%.1f GB moved)\n",
			name, n.Mean*1e3, n.P95*1e3, r.Evictions, r.Migrations, float64(r.MigratedBytes)/1e9)
	}
	show("hetis (§5.3 on)", full)
	show("plain LIFO", lifo)

	fmt.Println("\nre-dispatching relocates the newest request's attention heads to")
	fmt.Println("devices with slack instead of discarding its KV cache, so fewer")
	fmt.Println("requests pay the recomputation penalty.")
}
