package kvcache

import (
	"fmt"
	"slices"
	"testing"
)

// planMigrationMaps is the frozen map-keyed PlanMigration the slice form
// replaced: placements map device index → group count, and the surplus
// and deficit lists are built in ascending device order before the greedy
// pairing. FuzzPlanMigration holds PlanMigration to it move for move.
func planMigrationMaps(old, new map[int]int, tokens int, bytesPerGroupToken int64) ([]Move, error) {
	totalOld, totalNew := 0, 0
	for d, g := range old {
		if g < 0 {
			return nil, fmt.Errorf("kvcache: negative group count %d on device %d", g, d)
		}
		totalOld += g
	}
	for d, g := range new {
		if g < 0 {
			return nil, fmt.Errorf("kvcache: negative group count %d on device %d", g, d)
		}
		totalNew += g
	}
	if totalOld != totalNew {
		return nil, fmt.Errorf("kvcache: placement changes total groups %d -> %d", totalOld, totalNew)
	}

	maxDev := -1
	for d := range old {
		if d > maxDev {
			maxDev = d
		}
	}
	for d := range new {
		if d > maxDev {
			maxDev = d
		}
	}

	type delta struct{ dev, n int }
	var surplus, deficit []delta
	for d := 0; d <= maxDev; d++ {
		diff := old[d] - new[d]
		if diff > 0 {
			surplus = append(surplus, delta{d, diff})
		} else if diff < 0 {
			deficit = append(deficit, delta{d, -diff})
		}
	}

	var moves []Move
	i, j := 0, 0
	for i < len(surplus) && j < len(deficit) {
		n := surplus[i].n
		if deficit[j].n < n {
			n = deficit[j].n
		}
		moves = append(moves, Move{
			From:   surplus[i].dev,
			To:     deficit[j].dev,
			Groups: n,
			Tokens: tokens,
			Bytes:  int64(n) * int64(tokens) * bytesPerGroupToken,
		})
		surplus[i].n -= n
		deficit[j].n -= n
		if surplus[i].n == 0 {
			i++
		}
		if deficit[j].n == 0 {
			j++
		}
	}
	return moves, nil
}

// FuzzPlanMigration checks the slice PlanMigration against the frozen map
// oracle on random placements: both fail or both succeed, with equal
// moves in equal order. Each input byte pair is one device's old and new
// group count; signed bytes reach negative counts, and an odd trailing
// byte unbalances the totals. Planning appends to a scratch slice that
// already holds a move, which must survive untouched.
func FuzzPlanMigration(f *testing.F) {
	f.Add([]byte{5, 3, 0, 2}, uint16(100), uint8(64))
	f.Add([]byte{0, 2, 2, 0}, uint16(100), uint8(64))
	f.Add([]byte{4, 4, 0, 0, 4, 4}, uint16(500), uint8(64))
	f.Add([]byte{6, 0, 0, 2, 0, 2, 0, 2}, uint16(10), uint8(1))
	f.Add([]byte{12, 4, 4, 8, 0, 8, 8, 4}, uint16(1500), uint8(200))
	f.Add([]byte{2, 3}, uint16(1), uint8(1))
	f.Add([]byte{0xff, 0xff}, uint16(1), uint8(1))
	f.Add([]byte{}, uint16(7), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, tokens uint16, perGroupToken uint8) {
		var old, new []int
		for i := 0; i+1 < len(data); i += 2 {
			old = append(old, int(int8(data[i]))%32)
			new = append(new, int(int8(data[i+1]))%32)
		}
		if len(data)%2 == 1 && len(old) > 0 {
			new[len(new)-1] += int(data[len(data)-1]) % 3
		}
		oldMap, newMap := map[int]int{}, map[int]int{}
		for d := range old {
			oldMap[d], newMap[d] = old[d], new[d]
		}
		want, wantErr := planMigrationMaps(oldMap, newMap, int(tokens), int64(perGroupToken))
		sentinel := Move{From: -1, To: -1}
		got, err := PlanMigration([]Move{sentinel}, old, new, int(tokens), int64(perGroupToken))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("old %v new %v: error %v, oracle %v", old, new, err, wantErr)
		}
		if len(got) == 0 || got[0] != sentinel {
			t.Fatalf("old %v new %v: the scratch's first move was overwritten: %v", old, new, got)
		}
		if err != nil {
			if len(got) != 1 {
				t.Fatalf("old %v new %v: failed plan appended %v", old, new, got[1:])
			}
			return
		}
		if !slices.Equal(got[1:], want) {
			t.Fatalf("old %v new %v:\nmoves  %v\noracle %v", old, new, got[1:], want)
		}
	})
}
