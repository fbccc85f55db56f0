package main

import "slices"

// metricDef is one reported metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none. BENCHMARK.json at the
// repository root mirrors these tables (a test keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the simulator sees, measured on
// untraced reps, times on the reference host (host.go). Set-up time is its
// own metric so work moved out of the run and into set-up shows. Each bound
// is at least three times the largest spread (interquartile range over
// median) seen across the medians of 20-second runs at ten seeds on a
// shared 2-vCPU VM: 6.5% for wall time, 8.1% for throughput (the 2-worker
// fleet, whose second CPU the single-threaded reference does not probe),
// 2.6% for peak RSS. Set-up, a few milliseconds on the Hetis workloads, is
// the noisiest and gets the widest bound.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// engineNames are the engines whose share of Run time is reported.
var engineNames = []string{"hetis", "hexgen", "splitwise", "vllm"}

// perLayer are the traced reps' numbers, one group per layer. Shares and
// ratios say 0 on a workload that never exercises the layer, so only
// layers every workload runs report seconds.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"host.speed", "ratio", "higher", 0},
		{"traced.wall_s", "s", "lower", 0},
		{"tracing.overhead_ratio", "ratio", "lower", 0},
		{"lp.solves", "count", "lower", 0},
		{"lp.warm_starts", "count", "higher", 0},
		{"lp.wall_share", "share", "lower", 0},
		{"dispatch.lp_skip_ratio", "ratio", "higher", 0},
		{"kvcache.peak_util", "ratio", "lower", 0},
		{"kvcache.evictions_per_request", "ratio", "lower", 0},
		{"kvcache.migrations", "count", "lower", 0},
		{"kvcache.migrated_mb", "MiB", "lower", 0},
		{"sim.events", "count", "lower", 0},
		{"sim.events_per_request", "ratio", "lower", 0},
		{"engine.run_s", "s", "lower", 0},
		{"engine.build_s", "s", "lower", 0},
	}
	for _, e := range engineNames {
		defs = append(defs, metricDef{"engine.run_share." + e, "share", "lower", 0})
	}
	defs = append(defs,
		metricDef{"metrics.report_s", "s", "lower", 0},
		metricDef{"metrics.observe_share", "share", "lower", 0},
		metricDef{"trace.events", "count", "lower", 0},
		metricDef{"trace.export_share", "share", "lower", 0},
		metricDef{"workload.trace_s", "s", "lower", 0},
		metricDef{"fleet.partition_share", "share", "lower", 0},
		metricDef{"fleet.imbalance", "ratio", "lower", 0},
		metricDef{"fleet.speedup_w2", "ratio", "higher", 0},
		metricDef{"runtime.alloc_bytes_per_event", "B/event", "lower", 0},
		metricDef{"runtime.allocs_per_event", "allocs/event", "lower", 0},
		metricDef{"runtime.gc_cpu_share", "share", "lower", 0},
		metricDef{"runtime.gc_cycles", "count", "lower", 0},
		metricDef{"cpu.samples", "count", "lower", 0},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "share", "lower", 0})
	}
	return defs
}()

func metricByName(name string) (metricDef, bool) {
	i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == name })
	if i >= 0 {
		return endToEnd[i], true
	}
	i = slices.IndexFunc(perLayer, func(d metricDef) bool { return d.Name == name })
	if i >= 0 {
		return perLayer[i], true
	}
	return metricDef{}, false
}
