package dispatch

import (
	"testing"

	"hetis/internal/model"
)

func TestGreedyPolicyBasics(t *testing.T) {
	d := newDispatcher(t, model.OPT30B, testWorkers(1e12, 1e12))
	if d.Policy() != PolicyLP {
		t.Fatalf("default policy = %v want lp", d.Policy())
	}
	d.SetPolicy(PolicyGreedy)
	if d.Policy() != PolicyGreedy || d.Policy().String() != "greedy" {
		t.Fatalf("policy switch broken: %v", d.Policy())
	}
	if PolicyLP.String() != "lp" || Policy(99).String() != "unknown" {
		t.Fatal("policy strings wrong")
	}
}

func TestGreedyConservesHeads(t *testing.T) {
	for _, cfg := range []model.Config{model.OPT30B, model.Llama70B} {
		d := newDispatcher(t, cfg, testWorkers(1e12, 1e12, 1e12))
		d.SetPolicy(PolicyGreedy)
		got, err := dispatchEach(d, []NewRequest{
			{ID: 1, ContextLen: 1000},
			{ID: 2, ContextLen: 3000},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := cfg.GroupRatio()
		for id, x := range got {
			sum := 0
			for _, h := range x {
				if h%r != 0 {
					t.Errorf("%s req %d: heads %d not group-aligned", cfg.Name, id, h)
				}
				sum += h
			}
			if sum != cfg.Heads {
				t.Errorf("%s req %d: placed %d heads want %d", cfg.Name, id, sum, cfg.Heads)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	cfg := model.Llama13B
	perHeadToken := float64(cfg.KVBytesPerTokenHeadGroup())
	primCap := 4 * 1000 * perHeadToken // room for 4 heads of a 1000-token req
	d := newDispatcher(t, cfg, testWorkers(primCap, 1e12))
	d.SetPolicy(PolicyGreedy)
	got, err := d.Dispatch(NewRequest{ID: 1, ContextLen: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got.place[0] > 4 {
		t.Errorf("greedy put %d heads on a 4-head-capacity primary", got.place[0])
	}
}

func TestGreedyFailsCleanlyWhenFull(t *testing.T) {
	d := newDispatcher(t, model.Llama13B, testWorkers(100, 100))
	d.SetPolicy(PolicyGreedy)
	if _, err := d.Dispatch(NewRequest{ID: 1, ContextLen: 100000}); err == nil {
		t.Fatal("oversized request should fail")
	}
	if d.AttnStepTime() != 0 {
		t.Fatal("failed greedy dispatch left residue")
	}
}

func TestGreedyVsLPQuality(t *testing.T) {
	// On a symmetric instance both policies should land within a small
	// factor of each other for the resulting max attention time.
	build := func(p Policy) *Dispatcher {
		d := newDispatcher(t, model.Llama13B, testWorkers(1e12, 1e12, 1e12))
		d.SetPolicy(p)
		var reqs []NewRequest
		for i := 0; i < 24; i++ {
			reqs = append(reqs, NewRequest{ID: int64(i), ContextLen: 1000 + 200*(i%5)})
		}
		if _, err := dispatchEach(d, reqs); err != nil {
			t.Fatal(err)
		}
		return d
	}
	lp := build(PolicyLP).AttnStepTime()
	gr := build(PolicyGreedy).AttnStepTime()
	t.Logf("max attention time: lp %.3gs greedy %.3gs", lp, gr)
	if gr < lp*0.99 {
		t.Errorf("greedy (%g) beat the LP (%g) — LP should be optimal up to rounding", gr, lp)
	}
	if gr > lp*1.5 {
		t.Errorf("greedy (%g) more than 1.5x worse than LP (%g)", gr, lp)
	}
}

func TestRebalanceComputeRespectsFrozen(t *testing.T) {
	d := newDispatcher(t, model.Llama13B, testWorkers(1e12, 1e12, 1e12))
	if _, err := d.Dispatch(NewRequest{ID: 1, ContextLen: 200}); err != nil {
		t.Fatal(err)
	}
	var reqs []NewRequest
	for i := 2; i < 20; i++ {
		reqs = append(reqs, NewRequest{ID: int64(i), ContextLen: 500})
	}
	if _, err := dispatchEach(d, reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := extendByID(d, 1, 30000); err != nil {
		t.Fatal(err)
	}
	// With request 1 frozen, the re-dispatcher must not touch it even
	// though it is the dominant contributor.
	rd, err := d.RebalanceCompute(0.5, func(id RequestID) bool { return id == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if rd != nil && rd.Request == 1 {
		t.Fatalf("frozen request was re-dispatched: %+v", rd)
	}
}

func TestRepairCapacityShiftsGroups(t *testing.T) {
	// Rounding can momentarily overfill a worker; repairCapacity must move
	// whole groups to workers with slack without losing any.
	groups := []int{5, 0, 0}
	used := []float64{0, 0, 0}
	caps := []float64{200, 1000, 1000}
	if err := repairCapacity(groups, used, caps, 100); err != nil {
		t.Fatal(err)
	}
	if groups[0] > 2 {
		t.Fatalf("worker 0 still overfilled: %v", groups)
	}
	if groups[0]+groups[1]+groups[2] != 5 {
		t.Fatalf("groups lost: %v", groups)
	}
	// Truly impossible placements error.
	groups = []int{5}
	if err := repairCapacity(groups, []float64{0}, []float64{100}, 100); err == nil {
		t.Fatal("impossible repair should error")
	}
	// Zero per-group bytes is a no-op.
	if err := repairCapacity([]int{3}, []float64{0}, []float64{0}, 0); err != nil {
		t.Fatal(err)
	}
}
