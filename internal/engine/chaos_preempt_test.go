package engine

import (
	"slices"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// tieredChaos is a two-tier config: the "gold" tenant outranks everyone
// else (catch-all "bronze").
func tieredChaos() *ChaosConfig {
	return &ChaosConfig{Tiers: []Tier{
		{Name: "gold", Tenants: []string{"gold"}, Priority: 1},
		{Name: "bronze", Priority: 0},
	}}
}

// TestStaticEnginePreemption drives the static engines (hexgen, vllm) into
// KV-cache pressure with long-context bronze work already decoding, then
// lands a gold request: the engine must preempt bronze victims rather than
// queue the gold request behind them, and the victims must requeue (a
// preemption costs latency, never a completion).
func TestStaticEnginePreemption(t *testing.T) {
	// Prompts clamp at the model's context window, so cache pressure comes
	// from shrinking the cluster, not growing the prompts: OPT-30B on one
	// A100 caches only ~10.5k tokens — five 1.9k-token contexts fit, the
	// eight bronze ones do not.
	cluster, err := hardware.ParseCluster("1xA100")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(model.OPT30B, cluster)
	cfg.Chaos = tieredChaos()

	var reqs []workload.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, workload.Request{
			ID: int64(i + 1), ArrivalAt: float64(i) * 0.2,
			PromptLen: 1500, OutputLen: 400, Tenant: "bronze",
		})
	}
	reqs = append(reqs, workload.Request{
		ID: 100, ArrivalAt: 2, PromptLen: 1500, OutputLen: 100, Tenant: "gold",
	})

	for _, name := range []string{"hexgen", "vllm"} {
		eng, err := NewByName(name, cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := eng.Run(reqs, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Preempted == 0 {
			t.Errorf("%s: gold request under cache pressure should preempt bronze work", name)
		}
		if res.PreemptedByTenant["bronze"] != res.Preempted {
			t.Errorf("%s: preemptions %d not attributed to bronze (%v)", name, res.Preempted, res.PreemptedByTenant)
		}
		if res.Completed != len(reqs) {
			t.Errorf("%s: preemption lost work: completed %d of %d", name, res.Completed, len(reqs))
		}
		for _, r := range res.Recorder.Records() {
			if r.Tenant == "gold" && r.Dropped {
				t.Errorf("%s: gold request dropped", name)
			}
		}
	}
}

// pickVictimCases are TestPickVictim's table: each running batch is
// (prio, seq) pairs, and want indexes the victim in it.
var pickVictimCases = []struct {
	name    string
	running []*request
	tiered  bool
	limit   int
	want    int
}{
	// A single-priority tier list leaves unmatched tenants at prio 0;
	// untiered selection must still ignore priority entirely.
	{"untiered newest among prio 5", victimBatch(5, 1, 0, 2, 5, 7, 5, 3), false, anyPrio, 2},
	{"untiered prio-0 newest wins", victimBatch(5, 1, 5, 3, 0, 9), false, anyPrio, 2},
	{"tiered lowest priority first", victimBatch(5, 9, 0, 2, 3, 8, 0, 4), true, anyPrio, 3},
	{"tiered newest within priority", victimBatch(1, 3, 1, 6, 1, 5), true, anyPrio, 1},
	{"limit excludes equal and higher", victimBatch(2, 9, 1, 3, 0, 1, 1, 4), true, 2, 2},
	{"limit spares the admitter's peers", victimBatch(1, 3, 1, 6, 0, 2, 0, 1), true, 1, 2},
	{"limit with no candidate", victimBatch(2, 1, 3, 2), true, 2, -1},
	{"empty batch", nil, true, anyPrio, -1},
}

func victimBatch(prioSeq ...int) []*request {
	var out []*request
	for i := 0; i < len(prioSeq); i += 2 {
		out = append(out, &request{prio: prioSeq[i], seq: int64(prioSeq[i+1])})
	}
	return out
}

// TestPickVictim pins the one victim rule every engine's eviction and
// preemption share: plain LIFO untiered, lowest priority then newest
// under tiers, and a preemption limit that spares the admitting request's
// priority and above.
func TestPickVictim(t *testing.T) {
	for _, tc := range pickVictimCases {
		if got := pickVictim(tc.running, tc.tiered, tc.limit); got != tc.want {
			t.Errorf("%s: pickVictim = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPickVictimOrderFree checks that the victim does not depend on the
// batch's order — every permutation of each table batch yields the same
// request — which is what lets tokenPool swap-remove from its batch.
func TestPickVictimOrderFree(t *testing.T) {
	for _, tc := range pickVictimCases {
		var want *request
		if tc.want >= 0 {
			want = tc.running[tc.want]
		}
		permute(slices.Clone(tc.running), 0, func(batch []*request) {
			var got *request
			if i := pickVictim(batch, tc.tiered, tc.limit); i >= 0 {
				got = batch[i]
			}
			if got != want {
				t.Errorf("%s: batch %v picks %v, want %v", tc.name, batch, got, want)
			}
		})
	}
}

// permute calls visit with every ordering of batch[k:], permuting batch
// in place and restoring it.
func permute(batch []*request, k int, visit func([]*request)) {
	if k == len(batch) {
		visit(batch)
		return
	}
	for i := k; i < len(batch); i++ {
		batch[k], batch[i] = batch[i], batch[k]
		permute(batch, k+1, visit)
		batch[k], batch[i] = batch[i], batch[k]
	}
}
