package main

import (
	"fmt"

	"hetis/internal/scenario"
)

// workloadDef is one benchmark workload: a registered scenario resized to
// a fixed trace and measured through one sink. Every workload is a batch
// job — one simulation of a pre-generated trace whose arrival schedule is
// simulated time — so there is no wall-clock load generator to pace.
type workloadDef struct {
	Name string
	Why  string
	// Scenario is the registered spec the workload starts from.
	Scenario string
	// Rate, when nonzero, replaces the spec's base arrival rate (req/s).
	Rate float64
	// Duration is the trace span in simulated seconds.
	Duration float64
	// Stream measures through the streaming sinks instead of the exact
	// recorder and event trace (the -stream path of hetisbench).
	Stream bool
	// ShardWorkers is the fleet shard-pool width (sharded specs only).
	ShardWorkers int
}

// workloads is the benchmark's catalog, in run order. The Hetis workloads
// run at 4 req/s on purpose: at 5-6 req/s long Hetis traces tip into an
// eviction storm whose cost grows superlinearly with trace length, which
// would make run time a function of where the storm starts rather than of
// the code under test.
var workloads = []workloadDef{
	{
		Name:     "hetis-mix",
		Why:      "the paper's engine on the chat/code/LongBench mix: dispatch LP and KV extension dominate, the event kernel is nearly idle",
		Scenario: "multitenant",
		Rate:     4,
		Duration: 8000,
	},
	{
		Name:     "mega-exact",
		Why:      "vLLM on the megascale day with the exact recorder and event trace: kernel, engine loop and store-everything measurement",
		Scenario: "megascale",
		Duration: 25000,
	},
	{
		Name:     "mega-stream",
		Why:      "the same trace through the streaming sinks: same kernel work, opposite sink layer, so a sink change that trades one for the other shows",
		Scenario: "megascale",
		Duration: 25000,
		Stream:   true,
	},
	{
		Name:     "chaos-failover",
		Why:      "all four engines with replica kill, revive, re-route and KV haul: the only workload that runs the chaos fleets",
		Scenario: "failover",
		Rate:     4,
		Duration: 3000,
	},
	{
		Name:         "fleet-giga",
		Why:          "gigascale on 8 least-loaded shards with 2 shard workers: the only workload with routing, concurrent shards and a shard merge",
		Scenario:     "gigascale",
		Duration:     7812.5,
		Stream:       true,
		ShardWorkers: 2,
	},
}

// workloadByName resolves a catalog entry.
func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// spec resolves the workload's scenario at the given seed, with defaults
// filled so callers see the engines and SLO the run will use.
func (w workloadDef) spec(seed int64) (scenario.Spec, error) {
	spec, err := scenario.ByName(w.Scenario)
	if err != nil {
		return scenario.Spec{}, err
	}
	if w.Rate > 0 {
		spec.Traffic.Rate = w.Rate
	}
	spec.Duration = w.Duration
	spec.Seed = seed
	return scenario.Prepare(spec, false), nil
}
