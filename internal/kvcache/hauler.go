package kvcache

import "fmt"

// Move is one leg of a migration plan: transfer `Groups` head groups with
// `Tokens` of context from device From to device To.
type Move struct {
	From, To int
	Groups   int
	Tokens   int
	Bytes    int64
}

// PlanMigration appends to moves the minimal set of group moves that turns
// the old head-group placement of a request into the new one, and returns
// the extended slice. It reuses overlap: a device keeps min(old, new) of
// its groups in place (§5.3's partial cache transmission). old and new
// hold one group count per device index and must be the same length;
// tokens is the request's context length and bytesPerGroupToken its
// per-group-token footprint on the wire.
//
// The moves pair surplus devices with deficit devices greedily in
// ascending device order, which is optimal in total bytes because every
// group costs the same to move regardless of endpoints. Passing a
// reused moves[:0] plans without allocating.
func PlanMigration(moves []Move, old, new []int, tokens int, bytesPerGroupToken int64) ([]Move, error) {
	if len(old) != len(new) {
		return moves, fmt.Errorf("kvcache: placements cover %d and %d devices", len(old), len(new))
	}
	totalOld, totalNew := 0, 0
	for d := range old {
		if old[d] < 0 || new[d] < 0 {
			return moves, fmt.Errorf("kvcache: negative group count %d on device %d", min(old[d], new[d]), d)
		}
		totalOld += old[d]
		totalNew += new[d]
	}
	if totalOld != totalNew {
		return moves, fmt.Errorf("kvcache: placement changes total groups %d -> %d", totalOld, totalNew)
	}
	// from and to are the device cursors; surplus and deficit what each
	// still has to give or take. The totals are equal, so both cursors
	// run out together.
	from, to := -1, -1
	surplus, deficit := 0, 0
	for {
		for surplus == 0 {
			if from++; from == len(old) {
				return moves, nil
			}
			surplus = max(old[from]-new[from], 0)
		}
		for deficit == 0 {
			if to++; to == len(new) {
				return moves, nil
			}
			deficit = max(new[to]-old[to], 0)
		}
		n := min(surplus, deficit)
		moves = append(moves, Move{
			From:   from,
			To:     to,
			Groups: n,
			Tokens: tokens,
			Bytes:  int64(n) * int64(tokens) * bytesPerGroupToken,
		})
		surplus -= n
		deficit -= n
	}
}

// TotalMoveBytes sums the payload of a plan.
func TotalMoveBytes(moves []Move) int64 {
	var total int64
	for _, m := range moves {
		total += m.Bytes
	}
	return total
}
