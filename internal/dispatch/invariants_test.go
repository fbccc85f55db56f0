package dispatch

import (
	"math/rand"
	"testing"

	"hetis/internal/model"
)

// TestDispatchPlacementProperties drives the dispatcher with randomized
// worker pools, capacities, and admission batches (placed one request at
// a time), and asserts the placement contract on every successful
// dispatch:
//
//   - every request's heads sum to the model's query heads,
//   - per-worker head counts are whole KV-head groups,
//   - no worker's tracked cache load exceeds its CapacityBytes,
//   - the dispatcher's internal accounting matches the placements.
//
// Growth (ExtendSlot) and release (Remove) are exercised between
// batches so the invariants hold across the whole request lifecycle, not
// only at admission.
func TestDispatchPlacementProperties(t *testing.T) {
	models := []model.Config{model.OPT13B, model.OPT30B, model.Llama13B, model.Llama70B}
	rng := rand.New(rand.NewSource(20250726))
	const rounds = 60

	for round := 0; round < rounds; round++ {
		cfg := models[rng.Intn(len(models))]
		nWorkers := 1 + rng.Intn(5)
		caps := make([]float64, 0, nWorkers-1)
		for i := 1; i < nWorkers; i++ {
			caps = append(caps, float64(1+rng.Intn(64))*1e7) // 10 MB – 640 MB per layer
		}
		d := newDispatcher(t, cfg, testWorkers(float64(1+rng.Intn(64))*1e7, caps...))

		var live []RequestID
		nextID := RequestID(1)
		for step := 0; step < 8; step++ {
			// Admit a batch of 1-4 requests with random contexts.
			batch := make([]NewRequest, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = NewRequest{ID: nextID, ContextLen: 16 + rng.Intn(4000)}
				nextID++
			}
			r := cfg.GroupRatio()
			for _, rq := range batch {
				slot, err := d.Dispatch(rq)
				if err != nil {
					// The LP legitimately fails near capacity; that must
					// not corrupt state.
					if err := d.CheckInvariants(); err != nil {
						t.Fatalf("round %d: invariants broken after failed dispatch: %v", round, err)
					}
					continue
				}
				live = append(live, rq.ID)
				total := 0
				for w, heads := range slot.place {
					if heads < 0 {
						t.Fatalf("round %d: negative heads %d on worker %d", round, heads, w)
					}
					if heads%r != 0 {
						t.Fatalf("round %d: request %d places %d heads on worker %d, not a multiple of group ratio %d", round, rq.ID, heads, w, r)
					}
					total += heads
				}
				if total != cfg.Heads {
					t.Fatalf("round %d: request %d placed %d heads, want the model's %d query heads", round, rq.ID, total, cfg.Heads)
				}
				for i, w := range d.Workers() {
					if d.CacheBytes(i) > w.CapacityBytes+1 {
						t.Fatalf("round %d: worker %d cache %g exceeds capacity %g", round, i, d.CacheBytes(i), w.CapacityBytes)
					}
				}
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}

			// Grow a random live request; overflow reports are allowed, the
			// accounting must stay exact either way.
			if len(live) > 0 {
				id := live[rng.Intn(len(live))]
				if _, err := extendByID(d, id, rng.Intn(256)); err != nil {
					t.Fatalf("round %d: ExtendSlot: %v", round, err)
				}
			}
			// Finish a random request half the time.
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				d.Remove(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("round %d after mutation: %v", round, err)
			}
		}
	}
}
