// Quickstart: serve a small chat workload on the paper's heterogeneous
// cluster with Hetis and print the headline latency metrics.
package main

import (
	"fmt"
	"log"

	"hetis"
)

func main() {
	// The paper's evaluation cluster: 4×A100-80GB, 4×RTX 3090 (two hosts),
	// 4×P100, joined by 100 GbE.
	cluster := hetis.PaperCluster()
	fmt.Println("cluster:", cluster)

	// A 60-second ShareGPT-like chat trace at 5 requests/second.
	reqs := hetis.PoissonTrace(hetis.ShareGPT, 5, 60, 42)
	fmt.Printf("trace:   %d requests\n", len(reqs))

	// Plan the deployment: the Parallelizer picks primary workers for the
	// dense modules and demotes cost-ineffective GPUs to the shared
	// Attention-worker pool.
	cfg := hetis.DefaultEngineConfig(hetis.Llama13B, cluster)
	plan, err := hetis.PlanDeployment(cfg, reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan:    %d instance(s), %d attention workers, %.0f GB KV capacity\n",
		len(plan.Instances), plan.NumAttentionWorkers(), float64(plan.CacheCapacity)/1e9)

	// Serve the trace.
	eng, err := hetis.NewHetisEngine(cfg, plan)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(reqs, 0)
	if err != nil {
		log.Fatal(err)
	}

	snap := res.Recorder.Snapshot()
	ttft, tpot, norm := snap.TTFT, snap.TPOT, snap.NormLat
	fmt.Printf("\nserved %d requests in %.1f simulated seconds (%.2f req/s)\n",
		res.Completed, res.Horizon, res.Throughput())
	fmt.Printf("TTFT   mean %6.1f ms   p95 %6.1f ms\n", ttft.Mean*1e3, ttft.P95*1e3)
	fmt.Printf("TPOT   mean %6.1f ms   p95 %6.1f ms\n", tpot.Mean*1e3, tpot.P95*1e3)
	fmt.Printf("norm   mean %6.1f ms/token\n", norm.Mean*1e3)
	fmt.Printf("peak cache used: %.1f GB, evictions: %d, head migrations: %d\n",
		float64(res.PeakCacheUsed)/1e9, res.Evictions, res.Migrations)
}
