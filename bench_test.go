package hetis

// Microbenchmarks of the library calls the facade exposes: one §4.1
// search, one §5.1 profiling pass and one Hetis serving run. The
// experiments themselves are covered by `hetisbench -exp all`, and the
// end-to-end performance harness is benchmark/ (BENCHMARK.json).

import (
	"testing"
)

// BenchmarkParallelizerSearch measures a single §4.1 search on the paper
// cluster for Llama-70B (paper: 4 s on real hardware for the local
// cluster; the simulator's search is the same algorithm without process
// startup).
func BenchmarkParallelizerSearch(b *testing.B) {
	cluster := PaperCluster()
	wl := PlanWorkload{DecodeBatch: 64, AvgContext: 600, PrefillBatch: 4, AvgPrompt: 400, AvgOutput: 240}
	opts := DefaultPlanOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchPlan(cluster, Llama70B, wl, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfiler measures one full §5.1 profiling pass (8×8 grid per
// device across the 12-GPU paper cluster).
func BenchmarkProfiler(b *testing.B) {
	cluster := PaperCluster()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileCluster(OPT30B, cluster, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHetisServe measures end-to-end serving throughput of the
// simulator itself: one 30-second ShareGPT trace on the paper cluster per
// iteration.
func BenchmarkHetisServe(b *testing.B) {
	cluster := PaperCluster()
	cfg := DefaultEngineConfig(Llama13B, cluster)
	reqs := PoissonTrace(ShareGPT, 5, 30, 11)
	plan, err := PlanDeployment(cfg, reqs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewHetisEngine(cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(reqs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
