package kvcache

import (
	"errors"
	"math/rand"
	"testing"
)

// refAlloc is one request's allocation in the reference model: the block
// count is always recomputed by blocksFor's division.
type refAlloc struct {
	groups, tokens int
	arrival        int
}

// runManagerExtend drives a Manager and a division-only reference through
// one seeded Alloc / ExtendEntry (freshly resolved or cached handle) /
// Advance / GrowGroups / ShrinkGroups / Free sequence, checking after every
// step that the phase-counted representation holds exactly the blocks and
// tokens the reference recomputes — Advance as one token on every
// entry, all or nothing — that VictimLIFOExcept matches the reference's
// newest allocation, and that handles to freed entries are stale and
// inert.
func runManagerExtend(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		BlockTokens:        1 + rng.Intn(16),
		BytesPerGroupToken: 64,
		CapacityBytes:      int64(20+rng.Intn(200)) * 64 * 16,
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[RequestID]*refAlloc{}
	handles := map[RequestID]*Entry{}
	type stale struct {
		e  *Entry
		id RequestID
	}
	var dead []stale
	arrival := 0
	blocks := func(a *refAlloc) int {
		return a.groups * ((a.tokens + cfg.BlockTokens - 1) / cfg.BlockTokens)
	}
	used := func() int {
		n := 0
		for _, a := range ref {
			n += blocks(a)
		}
		return n
	}
	pick := func() (RequestID, bool) {
		if len(ref) == 0 {
			return 0, false
		}
		ids := m.AppendRequests(nil)
		return ids[rng.Intn(len(ids))], true
	}
	free := func(id RequestID) {
		if e, ok := handles[id]; ok {
			dead = append(dead, stale{e, id})
			delete(handles, id)
		}
		delete(ref, id)
	}
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); op {
		case 0, 1: // alloc, sometimes re-using a freed ID
			id := RequestID(rng.Intn(40))
			groups, tokens := 1+rng.Intn(4), rng.Intn(80)
			want := &refAlloc{groups: groups, tokens: tokens, arrival: arrival}
			err := m.Alloc(id, groups, tokens)
			switch {
			case ref[id] != nil:
				if err == nil {
					t.Fatalf("step %d: double alloc of %d accepted", step, id)
				}
			case blocks(want) > m.TotalBlocks()-used():
				if !errors.Is(err, ErrNoSpace) {
					t.Fatalf("step %d: alloc beyond capacity: %v", step, err)
				}
			case err != nil:
				t.Fatalf("step %d: alloc: %v", step, err)
			default:
				ref[id] = want
				arrival++
			}
		case 2, 3, 4: // extend through a fresh or a cached handle
			id, ok := pick()
			if !ok {
				continue
			}
			a := ref[id]
			n := rng.Intn(2 * cfg.BlockTokens)
			if rng.Intn(2) == 0 {
				n = rng.Intn(2)
			}
			grown := &refAlloc{groups: a.groups, tokens: a.tokens + n}
			var err error
			if rng.Intn(2) == 0 {
				err = extendID(m, id, n)
			} else {
				e := m.Resolve(handles[id], id)
				if h, held := handles[id]; held && e != h {
					t.Fatalf("step %d: live handle of %d went stale", step, id)
				}
				handles[id] = e
				err = m.ExtendEntry(e, n)
			}
			if blocks(grown)-blocks(a) > m.TotalBlocks()-used() {
				if !errors.Is(err, ErrNoSpace) {
					t.Fatalf("step %d: extension beyond capacity: %v", step, err)
				}
			} else if err != nil {
				t.Fatalf("step %d: extend: %v", step, err)
			} else {
				a.tokens += n
			}
		case 8, 9: // one decode step of every entry at once
			need := 0
			for _, a := range ref {
				need += blocks(&refAlloc{groups: a.groups, tokens: a.tokens + 1}) - blocks(a)
			}
			if got := m.StepDemand(); got != need {
				t.Fatalf("step %d: step demand %d, reference %d", step, got, need)
			}
			err := m.Advance()
			if need > m.TotalBlocks()-used() {
				if !errors.Is(err, ErrNoSpace) {
					t.Fatalf("step %d: advance beyond capacity: %v", step, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: advance: %v", step, err)
			}
			for _, a := range ref {
				a.tokens++
			}
		case 5: // grow groups
			id, ok := pick()
			if !ok {
				continue
			}
			a := ref[id]
			extra := 1 + rng.Intn(3)
			grown := &refAlloc{groups: a.groups + extra, tokens: a.tokens}
			err := m.GrowGroups(id, extra)
			if blocks(grown)-blocks(a) > m.TotalBlocks()-used() {
				if !errors.Is(err, ErrNoSpace) {
					t.Fatalf("step %d: growth beyond capacity: %v", step, err)
				}
			} else if err != nil {
				t.Fatalf("step %d: grow: %v", step, err)
			} else {
				a.groups += extra
			}
		case 6: // shrink groups, possibly to zero
			id, ok := pick()
			if !ok {
				continue
			}
			a := ref[id]
			removed := 1 + rng.Intn(a.groups)
			if err := m.ShrinkGroups(id, removed); err != nil {
				t.Fatalf("step %d: shrink: %v", step, err)
			}
			if a.groups -= removed; a.groups == 0 {
				free(id)
			}
		case 7: // free
			id, ok := pick()
			if !ok {
				continue
			}
			m.Free(id)
			free(id)
		}

		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got, want := m.UsedBlocks(), used(); got != want {
			t.Fatalf("step %d: %d blocks used, reference %d", step, got, want)
		}
		var newest, second RequestID = -1, -1
		for id, a := range ref {
			if got := m.BytesOf(id); got != int64(blocks(a))*cfg.BlockBytes() || m.Tokens(id) != a.tokens || m.Groups(id) != a.groups {
				t.Fatalf("step %d: request %d holds %d bytes/%d tokens/%d groups, reference %d/%d/%d",
					step, id, got, m.Tokens(id), m.Groups(id), int64(blocks(a))*cfg.BlockBytes(), a.tokens, a.groups)
			}
			switch {
			case newest < 0 || a.arrival > ref[newest].arrival:
				newest, second = id, newest
			case second < 0 || a.arrival > ref[second].arrival:
				second = id
			}
		}
		if v, ok := m.VictimLIFO(); ok != (newest >= 0) || (ok && v != newest) {
			t.Fatalf("step %d: VictimLIFO %d/%v, reference %d", step, v, ok, newest)
		}
		if newest >= 0 {
			if v, ok := m.VictimLIFOExcept(newest); ok != (second >= 0) || (ok && v != second) {
				t.Fatalf("step %d: VictimLIFOExcept(%d) %d/%v, reference %d", step, newest, v, ok, second)
			}
		}
		for _, d := range dead {
			if m.Resolve(d.e, d.id) == d.e {
				t.Fatalf("step %d: freed entry of %d still resolves as live", step, d.id)
			}
			free := m.FreeBlocks()
			if err := m.ExtendEntry(d.e, 1); err == nil || m.FreeBlocks() != free {
				t.Fatalf("step %d: stale entry of %d extended (err %v)", step, d.id, err)
			}
			if m.Resolve(nil, d.id) == d.e {
				t.Fatalf("step %d: freed entry of %d reused", step, d.id)
			}
		}
		if len(dead) > 32 {
			dead = dead[len(dead)-32:]
		}
	}
}

// FuzzManagerExtend fuzzes runManagerExtend over seeds.
func FuzzManagerExtend(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { runManagerExtend(t, seed) })
}

// TestManagerExtendSeeds runs the same sequence over a fixed seed range in
// the ordinary test pass.
func TestManagerExtendSeeds(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		runManagerExtend(t, seed)
	}
}

// room is the number of tokens each of the entry's groups still has free
// in its last block.
func (e *Entry) room() int {
	return e.m.perGroup(e.tokens())*e.m.cfg.BlockTokens - e.tokens()
}

// TestExtendEntryRoomCounter walks one entry across block boundaries token
// by token, by Advance, and in a multi-block jump, pinning tokens, blocks
// and room at each step.
func TestExtendEntryRoomCounter(t *testing.T) {
	m := newTestManager(t, 100)
	mustOK(t, m.Alloc(1, 2, 15))
	e := m.Resolve(nil, 1)
	if e.room() != 1 || e.blocks() != 2 {
		t.Fatalf("after alloc: room %d blocks %d, want 1 and 2", e.room(), e.blocks())
	}
	mustOK(t, m.ExtendEntry(e, 1)) // fills the last block
	if m.StepDemand() != 2 {
		t.Fatalf("a full last block needs one block per group next step, demand %d", m.StepDemand())
	}
	mustOK(t, m.Advance()) // crosses into a new block per group
	if e.tokens() != 17 || e.room() != 15 || e.blocks() != 4 || m.StepDemand() != 0 {
		t.Fatalf("after crossing: tokens %d room %d blocks %d demand %d, want 17, 15, 4, 0",
			e.tokens(), e.room(), e.blocks(), m.StepDemand())
	}
	mustOK(t, m.ExtendEntry(e, 40)) // 57 tokens: 4 blocks per group
	if e.room() != 7 || e.blocks() != 8 {
		t.Fatalf("after a multi-block jump: room %d blocks %d, want 7 and 8", e.room(), e.blocks())
	}
	mustOK(t, m.CheckInvariants())
	m.Free(1)
	if m.Resolve(e, 1) != nil || m.ExtendEntry(e, 1) == nil {
		t.Fatal("a freed entry must be stale")
	}
}
