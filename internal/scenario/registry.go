package scenario

import (
	"fmt"
	"sort"
	"sync"

	"hetis/internal/workload"
)

var (
	regMu sync.RWMutex
	specs = map[string]Spec{}
)

// Register adds a scenario to the catalog. Names are unique; registering a
// known name or an invalid spec errors.
func Register(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := specs[s.Name]; dup {
		return fmt.Errorf("scenario: %q already registered", s.Name)
	}
	specs[s.Name] = s
	return nil
}

// ByName resolves a registered scenario.
func ByName(name string) (Spec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := specs[name]
	if !ok {
		// Build the list inline: calling Names() here would re-acquire
		// regMu.RLock and deadlock against a writer waiting in Register.
		known := make([]string, 0, len(specs))
		for n := range specs {
			known = append(known, n)
		}
		sort.Strings(known)
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (known: %v)", name, known)
	}
	return s, nil
}

// ByNames resolves scenario names in the order given; ["all"] expands to
// SuiteNames, so heavy, chaotic and sharded scenarios run only when named.
func ByNames(names []string) ([]Spec, error) {
	if len(names) == 1 && names[0] == "all" {
		names = SuiteNames()
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("scenario: no scenarios named")
	}
	specs := make([]Spec, len(names))
	for i, name := range names {
		spec, err := ByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return specs, nil
}

// Names lists the registered scenarios in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(specs))
	for name := range specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SuiteNames lists the registered non-Heavy, non-chaotic, non-sharded
// scenarios in sorted order — what catalog-wide expansions ("all", the
// scenarios experiment) run. The rest run when named explicitly: Heavy
// because of cost, chaotic because their tables carry extra columns the
// suite consumers don't expect, and sharded because the suite's rows are
// single-cluster (the benchmark's fleet-giga workload measures fleet
// scaling).
func SuiteNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(specs))
	for name, s := range specs {
		if !s.Heavy && !s.Chaotic() && !s.Sharded() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// The built-in catalog: one scenario per traffic shape the workload layer
// supports, plus the multi-tenant mix. Rates are sized for Llama-13B on
// the paper cluster so the engines are loaded but not hopeless, and the
// shapes are duration-relative so Quick runs keep them intact.
func init() {
	builtins := []Spec{
		{
			Name:        "steady",
			Description: "steady Poisson chat traffic at 5 req/s (the paper's serving baseline)",
			Traffic:     Traffic{Kind: KindPoisson, Rate: 5},
		},
		{
			Name:        "bursty",
			Description: "two-state MMPP: 12 req/s bursts (mean 4 s) between 1.5 req/s lulls (mean 8 s)",
			Traffic: Traffic{Kind: KindMMPP, States: []workload.MMPPState{
				{Rate: 12, MeanDwell: 4},
				{Rate: 1.5, MeanDwell: 8},
			}},
		},
		{
			Name:        "diurnal",
			Description: "sinusoidal day/night load: 4 req/s ± 80% over one cycle per trace",
			Traffic:     Traffic{Kind: KindDiurnal, Rate: 4, Amplitude: 0.8, Cycles: 1},
		},
		{
			Name:        "flashcrowd",
			Description: "2.5 req/s with a 6x spike over the middle sixth of the trace",
			Traffic:     Traffic{Kind: KindFlashCrowd, Rate: 2.5, SpikeStart: 0.4, SpikeFrac: 1.0 / 6, SpikeFactor: 6},
		},
		{
			Name:        "multitenant",
			Description: "6 req/s shared by chat (SG, w3), code (HE, w2) and batch summarization (LB, w1) tenants",
			Traffic:     Traffic{Kind: KindPoisson, Rate: 6},
			Mix: []workload.MixEntry{
				{Tenant: "chat", Dataset: workload.ShareGPT, Weight: 3},
				{Tenant: "code", Dataset: workload.HumanEval, Weight: 2},
				{Tenant: "batch", Dataset: workload.LongBench, Weight: 1},
			},
		},
		{
			Name:        "closedloop",
			Description: "closed-loop population: 48 sessions with 8 s mean think time (~6 req/s offered)",
			Traffic:     Traffic{Kind: KindClosedLoop, Users: 48, Think: 8},
		},
		{
			// The streaming-sink scale proof: ~10^6 requests in one run. A
			// day-scale diurnal wave at a rate the homogeneous reference
			// tier genuinely serves (±60% around 20 req/s of short code
			// completions, ~91% SLO attainment), so the scenario measures
			// measurement cost, not pure overload. Exact measurement holds
			// ~200 MB of records and trace events for it; the streaming
			// sink holds kilobytes.
			Name:        "megascale",
			Description: "million-request diurnal day: 20 req/s ±60% of code-completion traffic over 50000 s (run with the streaming sink)",
			Traffic:     Traffic{Kind: KindDiurnal, Rate: 20, Amplitude: 0.6, Cycles: 1},
			Mix: []workload.MixEntry{
				{Tenant: "code", Dataset: workload.HumanEval, Weight: 1},
			},
			Engines:        []string{"vllm"},
			Duration:       50000,
			Heavy:          true,
			GoldenDuration: 40,
		},
		{
			// The fleet layer's golden referee: small enough for the exact
			// recorder, sharded enough to pin the router, the per-shard seed
			// split, and the ordered merge byte-for-byte. Tenant affinity
			// keeps each tenant's requests on one shard, so the merged
			// per-tenant rows double as a routing regression check.
			Name:        "fleet",
			Description: "multitenant 6 req/s across a 4-shard fleet behind a tenant-affinity front door",
			Traffic:     Traffic{Kind: KindPoisson, Rate: 6},
			Mix: []workload.MixEntry{
				{Tenant: "chat", Dataset: workload.ShareGPT, Weight: 3},
				{Tenant: "code", Dataset: workload.HumanEval, Weight: 2},
				{Tenant: "batch", Dataset: workload.LongBench, Weight: 1},
			},
			Engines: []string{"hetis", "vllm"},
			Fleet:   &FleetSpec{Shards: 4, Policy: "affinity"},
		},
		{
			// The intra-run-parallelism scale proof: megascale's traffic
			// shape at 8x the rate and 1.25x the span — ten million requests
			// in one run, split over 8 least-loaded shards so each shard
			// carries megascale's reference 20 req/s. Run with the streaming
			// sink: exact measurement would hold ~2 GB of records.
			Name:        "gigascale",
			Description: "ten-million-request fleet day: 160 req/s ±60% of code completions over 62500 s, 8 least-loaded shards (run with the streaming sink)",
			Traffic:     Traffic{Kind: KindDiurnal, Rate: 160, Amplitude: 0.6, Cycles: 1},
			Mix: []workload.MixEntry{
				{Tenant: "code", Dataset: workload.HumanEval, Weight: 1},
			},
			Engines:        []string{"vllm"},
			Duration:       62500,
			Fleet:          &FleetSpec{Shards: 8, Policy: "least-loaded"},
			Heavy:          true,
			GoldenDuration: 40,
		},
		{
			// Chaos: one of two replicas dies twice mid-trace. The first
			// outage loses its KV (victims re-prefill from scratch); the
			// second hauls resident KV to the survivor over the
			// interconnect. Pins re-dispatch, recovery accounting and both
			// KV policies on every engine.
			Name:        "failover",
			Description: "steady 5 req/s on two replicas; replica 1 fails twice (KV lost, then KV hauled)",
			Traffic:     Traffic{Kind: KindPoisson, Rate: 5},
			Engines:     []string{"hetis", "hexgen", "vllm", "splitwise"},
			Replicas:    2,
			FailurePlan: []FailureEvent{
				{Replica: 1, Start: 0.25, End: 0.55},
				{Replica: 1, Start: 0.6, End: 0.85, HaulKV: true},
			},
		},
		{
			// Chaos: the flash-crowd spike drives SLO attainment down and
			// the controller scales 1 → 3 replicas behind a provisioning
			// lag, then folds back once the wave passes. The spike spans
			// many control intervals so the reactive loop has time to help
			// (a spike shorter than the window ends before misses surface).
			Name:        "autoscale",
			Description: "flash-crowd spike under an SLO-driven autoscaler (1-3 replicas, provisioning lag)",
			Traffic:     Traffic{Kind: KindFlashCrowd, Rate: 2.5, SpikeStart: 0.4, SpikeFrac: 1.0 / 4, SpikeFactor: 6},
			Duration:    160,
			Autoscale: &AutoscaleSpec{
				MinReplicas: 1, MaxReplicas: 3,
				Interval: 0.04, Lag: 0.02,
				UpBelow: 0.7, DownAbove: 0.95,
			},
		},
		{
			// Chaos: gold-tier chat preempts the uncapped silver tier's
			// long-context batch work out of KV memory, while bronze bulk
			// traffic is admission-capped so overload drops it instead of
			// starving the tiers above. Pins preemption counts, admission
			// drops and per-tier SLO rows.
			Name:        "preempt",
			Description: "10 req/s chat+batch+bulk mix: gold preempts silver's long contexts, bronze is admission-capped",
			Traffic:     Traffic{Kind: KindPoisson, Rate: 10},
			Mix: []workload.MixEntry{
				{Tenant: "chat", Dataset: workload.ShareGPT, Weight: 2},
				{Tenant: "batch", Dataset: workload.LongBench, Weight: 2},
				{Tenant: "bulk", Dataset: workload.LongBench, Weight: 1},
			},
			Tiers: []TierSpec{
				{Name: "gold", Tenants: []string{"chat"}, Priority: 2},
				{Name: "silver", Tenants: []string{"batch"}, Priority: 1},
				{Name: "bronze", Tenants: []string{"bulk"}, Priority: 0, MaxInflight: 8},
			},
		},
	}
	for _, s := range builtins {
		if err := Register(s); err != nil {
			panic(err)
		}
	}
}
