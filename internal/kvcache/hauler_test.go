package kvcache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPlanMigrationReusesOverlap(t *testing.T) {
	// Device 0 keeps 3 of its 5 groups; only 2 move to device 1.
	old := []int{5, 0}
	new := []int{3, 2}
	moves, err := PlanMigration(nil, old, new, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 {
		t.Fatalf("want 1 move, got %v", moves)
	}
	m := moves[0]
	if m.From != 0 || m.To != 1 || m.Groups != 2 {
		t.Fatalf("move = %+v want 2 groups 0->1", m)
	}
	if m.Bytes != 2*100*64 {
		t.Fatalf("bytes = %d want %d", m.Bytes, 2*100*64)
	}
}

func TestPlanMigrationIdentityIsFree(t *testing.T) {
	old := []int{4, 0, 4}
	moves, err := PlanMigration(nil, old, old, 500, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("identity plan should have no moves, got %v", moves)
	}
}

func TestPlanMigrationMultiWay(t *testing.T) {
	old := []int{6, 0, 0, 0}
	new := []int{0, 2, 2, 2}
	moves, err := PlanMigration(nil, old, new, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if TotalMoveBytes(moves) != 60 {
		t.Fatalf("total bytes = %d want 60", TotalMoveBytes(moves))
	}
	moved := 0
	for _, m := range moves {
		if m.From != 0 {
			t.Fatalf("all moves should come from device 0: %+v", m)
		}
		moved += m.Groups
	}
	if moved != 6 {
		t.Fatalf("moved %d groups want 6", moved)
	}
}

func TestPlanMigrationErrors(t *testing.T) {
	if _, err := PlanMigration(nil, []int{2}, []int{3}, 1, 1); err == nil {
		t.Error("group-count change should error")
	}
	if _, err := PlanMigration(nil, []int{-1}, []int{-1}, 1, 1); err == nil {
		t.Error("negative groups should error")
	}
	if _, err := PlanMigration(nil, []int{2, 0}, []int{2}, 1, 1); err == nil {
		t.Error("placements of different lengths should error")
	}
}

func TestPropertyMigrationConservesGroups(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDev := 2 + rng.Intn(5)
		total := 1 + rng.Intn(20)
		// Random old and new placements of the same total.
		place := func() []int {
			p := make([]int, nDev)
			left := total
			for d := 0; d < nDev-1; d++ {
				p[d] = rng.Intn(left + 1)
				left -= p[d]
			}
			p[nDev-1] = left
			return p
		}
		old, new := place(), place()
		moves, err := PlanMigration(nil, old, new, 100, 8)
		if err != nil {
			return false
		}
		// Apply the moves to old; must land exactly on new.
		got := slices.Clone(old)
		for _, m := range moves {
			got[m.From] -= m.Groups
			got[m.To] += m.Groups
			if got[m.From] < 0 {
				return false
			}
		}
		for d := 0; d < nDev; d++ {
			if got[d] != new[d] {
				return false
			}
		}
		// Minimality: moved groups == total deficit.
		deficit := 0
		for d, g := range new {
			if g > old[d] {
				deficit += g - old[d]
			}
		}
		moved := 0
		for _, m := range moves {
			moved += m.Groups
		}
		return moved == deficit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMgmtCostFig15bShape(t *testing.T) {
	// Paper: head-wise management costs ~13% more on the store path and
	// ~26% less on the fetch path. Check the model lands in those
	// neighbourhoods for a typical OPT-30B-like setup: 56 head groups,
	// 1024-token context with 16-token blocks (64 blocks).
	groups, blocks := 40, 64

	storeRatio := HeadWiseStore(groups) / TokenWiseStore()
	fetchRatio := HeadWiseFetch(groups, blocks) / TokenWiseFetch(blocks)
	t.Logf("store overhead %+.0f%%, fetch change %+.0f%%", (storeRatio-1)*100, (fetchRatio-1)*100)

	if storeRatio < 1.05 || storeRatio > 1.30 {
		t.Errorf("store ratio %.2f outside paper-like band [1.05,1.30]", storeRatio)
	}
	if fetchRatio > 0.90 || fetchRatio < 0.55 {
		t.Errorf("fetch ratio %.2f outside paper-like band [0.55,0.90]", fetchRatio)
	}
}

// TestMgmtCostDegenerateShapes: one head group stores at exactly the
// token-wise cost, an empty context fetches at the fixed cost on both
// paths, and the head-wise store cost grows with the group count.
func TestMgmtCostDegenerateShapes(t *testing.T) {
	if got, want := HeadWiseStore(1), TokenWiseStore(); got != want {
		t.Errorf("one-group head-wise store %g, token-wise %g", got, want)
	}
	if got, want := HeadWiseFetch(40, 0), TokenWiseFetch(0); got != want || got <= 0 {
		t.Errorf("empty-context fetch: head-wise %g, token-wise %g", got, want)
	}
	if HeadWiseStore(80) <= HeadWiseStore(40) {
		t.Error("head-wise store must cost more with more head groups")
	}
}
