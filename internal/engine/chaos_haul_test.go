package engine

import (
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// TestSoleReplicaHaulLosesKV kills the only replica in haul mode: every
// resident request starts hauling its KV, and each transfer (about 0.1 s)
// lands well inside the 3 s outage, while no replica is serving. The KV
// has nowhere to live, so on every engine the request must lose it — a
// counted eviction inside the outage, traced before its next prefill —
// rather than re-enter with a one-token prefill after revival.
func TestSoleReplicaHaulLosesKV(t *testing.T) {
	fw := FailureWindow{Replica: 0, Start: 5, End: 8, HaulKV: true}
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	cfg.Chaos = &ChaosConfig{Replicas: 1, Failures: []FailureWindow{fw}}
	reqs := workload.Poisson(workload.HumanEval, 4, 15, 11)

	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			eng, err := NewByName(name, cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(reqs, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Hauls are the migrations traced by the kill itself: after the
			// failure event, at the failure instant. pending holds each
			// hauled request until its eviction shows up.
			failed := false
			pending := map[int64]bool{}
			hauled, evictions := 0, 0
			for _, ev := range res.Trace.Events() {
				switch ev.Kind {
				case trace.KindFailure:
					failed = true
				case trace.KindMigration:
					if failed && ev.At == fw.Start {
						pending[ev.Request] = true
						hauled++
					}
				case trace.KindEviction:
					if ev.Note != "" {
						continue // a drop, not an eviction
					}
					evictions++
					if pending[ev.Request] {
						if ev.At < fw.Start || ev.At >= fw.End {
							t.Errorf("request %d lost its hauled KV at %g, outside the outage [%g, %g)", ev.Request, ev.At, fw.Start, fw.End)
						}
						delete(pending, ev.Request)
					}
				case trace.KindPrefill:
					if pending[ev.Request] {
						t.Errorf("request %d prefilled at %g with KV hauled while no replica was active and no eviction", ev.Request, ev.At)
						delete(pending, ev.Request)
					}
				}
			}
			if hauled == 0 {
				t.Fatal("the kill hauled nothing; the scenario no longer exercises a sole-replica haul")
			}
			if len(pending) > 0 {
				t.Errorf("%d of %d requests hauled while no replica was active kept their KV", len(pending), hauled)
			}
			if res.Evictions != evictions {
				t.Errorf("Evictions = %d, but the trace holds %d evictions", res.Evictions, evictions)
			}
			if got := res.Completed + res.Dropped + res.Queued; got != len(reqs) {
				t.Errorf("ledger leak: %d accounted of %d offered", got, len(reqs))
			}
		})
	}
}
