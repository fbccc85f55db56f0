package hetis

// One benchmark per table and figure of the paper's evaluation (§7). Each
// bench regenerates the corresponding experiment end to end — workload
// generation, deployment planning, engine simulation, and aggregation — so
// `go test -bench=. -benchmem` reproduces the entire evaluation and reports
// the harness cost of each artifact. The tests in internal/experiments
// check each artifact's measured values against the paper's.

import (
	"testing"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := ExperimentOptions{Quick: true}
	for i := 0; i < b.N; i++ {
		tab, err := RunExperiment(id, opts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (per-GPU memory and iteration times).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2 regenerates Fig. 2 (decode MLP/Attention gaps across GPUs).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig5 regenerates Fig. 5 (head-wise vs seq-wise communication).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig7 regenerates Fig. 7 (attention-time linearity).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Fig. 8 (latency vs rate, Llama-13B).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Fig. 9 (latency vs rate, OPT-30B).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10 (latency vs rate, Llama-70B).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Fig. 11 (available KV-cache space).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Fig. 12 (P95 TTFT and TPOT, Llama-70B).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Fig. 13 (P95 module latencies).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Fig. 14 (dynamic per-device usage).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15a regenerates Fig. 15(a) (re-dispatching vs plain LIFO).
func BenchmarkFig15a(b *testing.B) { benchExperiment(b, "fig15a") }

// BenchmarkFig15b regenerates Fig. 15(b) (head-wise management overhead).
func BenchmarkFig15b(b *testing.B) { benchExperiment(b, "fig15b") }

// BenchmarkFig16a regenerates Fig. 16(a) (Θ sensitivity).
func BenchmarkFig16a(b *testing.B) { benchExperiment(b, "fig16a") }

// BenchmarkFig16b regenerates Fig. 16(b) (profiling-error robustness).
func BenchmarkFig16b(b *testing.B) { benchExperiment(b, "fig16b") }

// BenchmarkSearchOverhead regenerates the §7.4 Parallelizer-search timing.
func BenchmarkSearchOverhead(b *testing.B) { benchExperiment(b, "search") }

// BenchmarkModelAccuracy regenerates the §7.4 profiling-accuracy check.
func BenchmarkModelAccuracy(b *testing.B) { benchExperiment(b, "accuracy") }

// --- component microbenchmarks ------------------------------------------------

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

// --- ablation benchmarks (design choices beyond the paper's figures) ----------

// BenchmarkAblationSplit compares head/sequence/batch-wise splitting.
func BenchmarkAblationSplit(b *testing.B) { benchExperiment(b, "ablation-split") }

// BenchmarkAblationDelta sweeps the §4.1 exclusion threshold Δ.
func BenchmarkAblationDelta(b *testing.B) { benchExperiment(b, "ablation-delta") }

// BenchmarkAblationDispatch compares the Eq. 7 LP against greedy placement.
func BenchmarkAblationDispatch(b *testing.B) { benchExperiment(b, "ablation-dispatch") }

// BenchmarkAblationMigration compares overlapped vs blocking migration.
func BenchmarkAblationMigration(b *testing.B) { benchExperiment(b, "ablation-migration") }

// BenchmarkAblationDP sweeps the data-parallel instance count.
func BenchmarkAblationDP(b *testing.B) { benchExperiment(b, "ablation-dp") }

// BenchmarkThroughput regenerates the abstract's sustained-rate claim
// (max request rate per system under a latency SLO).
func BenchmarkThroughput(b *testing.B) { benchExperiment(b, "throughput") }

// BenchmarkAblationSearch compares the Cp-greedy heuristic with the
// extended comm-aware primary-set search.
func BenchmarkAblationSearch(b *testing.B) { benchExperiment(b, "ablation-search") }

// BenchmarkAblationHetero measures the premium-scarce cluster comparison.
func BenchmarkAblationHetero(b *testing.B) { benchExperiment(b, "ablation-hetero") }
