package dispatch

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hetis/internal/model"
)

// coldTwin rebuilds d from scratch: a New dispatcher over the same
// workers holding d's records, at their current contexts, except skip's
// (with none skipped, its loads must equal d's). Its first placement poses
// the LP from scratch.
func coldTwin(t *testing.T, d *Dispatcher, skip RequestID) *Dispatcher {
	t.Helper()
	twin, err := New(d.cfg, d.workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.recs {
		if s.id != skip {
			twin.commit(s.id, s.ctx(), append([]int(nil), s.place...))
		}
	}
	for i := range d.workers {
		if skip < 0 && (twin.h[i] != d.h[i] || twin.g[i] != d.g[i]) {
			t.Fatalf("cold twin's worker %d load h %d/%d g %d/%d", i, twin.h[i], d.h[i], twin.g[i], d.g[i])
		}
	}
	return twin
}

// TestCachingDecisionEquivalence is the optimization contract's property
// test, over randomized admission / context-growth / rebalance / removal
// sequences:
//
//   - every placement — an admission or a §5.3.1 re-placement — equals,
//     bit for bit, the first placement of a cold twin rebuilt from the
//     dispatcher's records, so rewriting the placement LP in place never
//     changes a decision;
//   - every RebalanceCompute acts exactly when AttnStepTime exceeds
//     IdealAttnTime·(1+θ), so the lower-bound skip never suppresses an
//     action the relaxation would take.
func TestCachingDecisionEquivalence(t *testing.T) {
	var avoided, acted, declined int
	for seed := int64(1); seed <= 8; seed++ {
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Tight-ish capacities so growth hits limits and rebalancing has
			// something to do; theta varies so both skip and solve paths run.
			caps := []float64{3e8, 2e8, 2e8, 1e8, 1e8, 1e8}
			d, err := New(model.Llama13B, testWorkersForBench(caps[0], caps[1:]...))
			if err != nil {
				t.Fatal(err)
			}
			samePlacement := func(step int, twin *Dispatcher, rq NewRequest, got []int, gotErr error) {
				t.Helper()
				want, wantErr := twin.Dispatch(rq)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("step %d: request %d placed with error %v, cold twin %v", step, rq.ID, gotErr, wantErr)
				}
				if gotErr == nil && !reflect.DeepEqual(got, want.place) {
					t.Fatalf("step %d: request %d placed %v, cold twin %v", step, rq.ID, got, want.place)
				}
			}

			theta := []float64{0, 0.1, 0.5}[rng.Intn(3)]
			var live []RequestID
			nextID := RequestID(1)
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // admit
					rq := NewRequest{ID: nextID, ContextLen: 64 + rng.Intn(2048)}
					nextID++
					twin := coldTwin(t, d, -1)
					s, err := d.Dispatch(rq)
					var got []int
					if err == nil {
						got = s.place
						live = append(live, rq.ID)
					}
					samePlacement(step, twin, rq, got, err)
				case op < 7: // grow every live request by one token
					for _, id := range live {
						if _, err := extendByID(d, id, 1); err != nil {
							t.Fatalf("step %d: extend %d: %v", step, id, err)
						}
					}
				case op < 9: // rebalance check
					current := d.AttnStepTime()
					ideal, idealErr := d.IdealAttnTime()
					snapshot := coldTwin(t, d, -1)
					rd, err := d.RebalanceCompute(theta, nil)
					if idealErr != nil {
						if rd != nil {
							t.Fatalf("step %d: rebalanced %+v with an infeasible relaxation", step, rd)
						}
						continue
					}
					want := current > ideal*(1+theta)
					if got := rd != nil || err != nil; got != want {
						t.Fatalf("step %d: rebalance acted %v (err %v); current %v, ideal %v, theta %v", step, got, err, current, ideal, theta)
					}
					if !want {
						declined++
						continue
					}
					acted++
					if rd != nil {
						twin := coldTwin(t, snapshot, rd.Request)
						samePlacement(step, twin, NewRequest{ID: rd.Request, ContextLen: d.ContextLen(rd.Request)}, rd.New, nil)
					}
				default: // remove a random live request
					if len(live) == 0 {
						continue
					}
					k := rng.Intn(len(live))
					d.Remove(live[k])
					live = append(live[:k], live[k+1:]...)
				}
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			avoided += d.LPSolvesAvoided
		})
	}
	t.Logf("%d lower-bound skips, %d rebalance actions, %d declines", avoided, acted, declined)
	if avoided == 0 || acted == 0 || declined == 0 {
		t.Errorf("%d lower-bound skips, %d rebalance actions, %d declines; all must be nonzero", avoided, acted, declined)
	}
}

// TestIdealLowerBoundCertified asserts the aggregate bound never exceeds
// the exact relaxation optimum it gates, across random loads — the
// inequality the RebalanceCompute skip is sound under.
func TestIdealLowerBoundCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		d, err := New(model.Llama13B, testWorkersForBench(1e12, 1e12, 1e12, 1e12))
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			if _, err := d.Dispatch(NewRequest{ID: RequestID(i), ContextLen: 32 + rng.Intn(4096)}); err != nil {
				t.Fatal(err)
			}
		}
		lb := d.idealLowerBound()
		ideal, err := d.IdealAttnTime()
		if err != nil {
			t.Fatal(err)
		}
		if lb > ideal {
			t.Fatalf("trial %d (n=%d): lower bound %v exceeds ideal %v", trial, n, lb, ideal)
		}
	}
}

// TestPlacementView pins the no-copy accessor: the dispatcher's own record,
// backing array included, and nil for unknowns.
func TestPlacementView(t *testing.T) {
	d, err := New(model.Llama13B, testWorkersForBench(1e12, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumWorkers() != 2 {
		t.Fatalf("NumWorkers=%d want 2", d.NumWorkers())
	}
	if _, err := d.Dispatch(NewRequest{ID: 7, ContextLen: 100}); err != nil {
		t.Fatal(err)
	}
	view, place := d.PlacementView(7), d.byID[7].place
	if len(view) != 2 || &view[0] != &place[0] {
		t.Errorf("view %v is not the record's placement %v", view, place)
	}
	if d.PlacementView(8) != nil {
		t.Error("unknown request should view nil")
	}
}

// TestIdealAttnTimeAllocatesNothing pins the §5.3.1 relaxation's scratch:
// once warm, IdealAttnTime reuses the dispatcher's context-length and
// bucket buffers, and the solve its sweep buffer, so a rebalance check
// allocates nothing.
func TestIdealAttnTimeAllocatesNothing(t *testing.T) {
	d, err := New(model.Llama13B, benchWorkers())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if _, err := d.Dispatch(NewRequest{ID: int64(i), ContextLen: 400 + 37*(i%19)}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := d.IdealAttnTime()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if got, err := d.IdealAttnTime(); err != nil || got != want {
			t.Fatalf("IdealAttnTime = %g, %v; want %g", got, err, want)
		}
	})
	if allocs != 0 {
		t.Errorf("IdealAttnTime allocates %.1f times per call once warm, want 0", allocs)
	}
}

// TestRedispatchOldIsPriorPlacement pins redispatchRequest's no-copy read
// of the released record: Redispatch.Old is the placement the request held
// before, and later placements never change it.
func TestRedispatchOldIsPriorPlacement(t *testing.T) {
	d, err := New(model.Llama13B, testWorkersForBench(1e12, 1e12, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := d.Dispatch(NewRequest{ID: int64(i), ContextLen: 300 + 50*i}); err != nil {
			t.Fatal(err)
		}
	}
	before := slices.Clone(d.PlacementView(5))
	rd, err := d.redispatchRequest(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rd.Old, before) || !reflect.DeepEqual(rd.New, d.PlacementView(5)) {
		t.Fatalf("redispatch Old %v New %v, want Old %v New %v", rd.Old, rd.New, before, d.PlacementView(5))
	}
	for i := 0; i < 16; i++ {
		if _, err := d.redispatchRequest(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(rd.Old, before) {
		t.Fatalf("later redispatches changed an earlier Redispatch.Old: %v, want %v", rd.Old, before)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
