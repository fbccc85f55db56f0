// Chatbot: sweep a ShareGPT-like workload across request rates and compare
// Hetis against the Splitwise and HexGen baselines — a miniature of the
// paper's Fig. 8 experiment, printed as latency-vs-rate series.
package main

import (
	"fmt"
	"log"

	"hetis"
)

func main() {
	cluster := hetis.PaperCluster()
	m := hetis.Llama13B
	cfg := hetis.DefaultEngineConfig(m, cluster)
	const dur = 40.0

	fmt.Printf("%-10s %-14s %-14s %-14s\n", "rate", "splitwise", "hexgen", "hetis")
	for _, rate := range []float64{3, 6, 9, 12} {
		reqs := hetis.PoissonTrace(hetis.ShareGPT, rate, dur, int64(rate*100))

		plan, err := hetis.PlanDeployment(cfg, reqs)
		if err != nil {
			log.Fatal(err)
		}
		het, err := hetis.NewHetisEngine(cfg, plan)
		if err != nil {
			log.Fatal(err)
		}
		sw, err := hetis.NewSplitwiseEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		hx, err := hetis.NewHexGenEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}

		norm := func(e hetis.Engine) string {
			res, err := e.Run(reqs, dur*30)
			if err != nil {
				log.Fatal(err)
			}
			return fmt.Sprintf("%6.1f ms/tok", res.Recorder.Snapshot().NormLat.Mean*1e3)
		}
		fmt.Printf("%-10.0f %-14s %-14s %-14s\n", rate, norm(sw), norm(hx), norm(het))
	}
	fmt.Println("\nlower is better; Hetis holds low latency as the rate grows by")
	fmt.Println("spilling decode attention onto the pooled P100 attention workers.")
}
