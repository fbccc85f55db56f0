package kvcache

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestManager(t *testing.T, blocks int) *Manager {
	t.Helper()
	cfg := Config{BlockTokens: 16, BytesPerGroupToken: 1024, CapacityBytes: int64(blocks) * 16 * 1024}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalBlocks() != blocks {
		t.Fatalf("TotalBlocks=%d want %d", m.TotalBlocks(), blocks)
	}
	return m
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewManagerValidation(t *testing.T) {
	for _, cfg := range []Config{
		{BlockTokens: 0, BytesPerGroupToken: 1, CapacityBytes: 100},
		{BlockTokens: 16, BytesPerGroupToken: 0, CapacityBytes: 100},
		{BlockTokens: 16, BytesPerGroupToken: 1, CapacityBytes: -1},
	} {
		if _, err := NewManager(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestAllocFreeAccounting(t *testing.T) {
	m := newTestManager(t, 100)
	// 2 groups × 33 tokens → ceil(33/16)=3 blocks/group → 6 blocks.
	mustOK(t, m.Alloc(1, 2, 33))
	if m.UsedBlocks() != 6 {
		t.Fatalf("UsedBlocks=%d want 6", m.UsedBlocks())
	}
	if m.BytesOf(1) != 6*16*1024 {
		t.Fatalf("BytesOf=%d want %d", m.BytesOf(1), 6*16*1024)
	}
	m.Free(1)
	if m.UsedBlocks() != 0 || m.FreeBlocks() != 100 {
		t.Fatalf("free accounting broken: used=%d free=%d", m.UsedBlocks(), m.FreeBlocks())
	}
	mustOK(t, m.CheckInvariants())
}

func TestDoubleAllocRejected(t *testing.T) {
	m := newTestManager(t, 100)
	mustOK(t, m.Alloc(1, 1, 10))
	if err := m.Alloc(1, 1, 10); err == nil {
		t.Fatal("double alloc should fail")
	}
}

func TestAllocNoSpace(t *testing.T) {
	m := newTestManager(t, 4)
	err := m.Alloc(1, 2, 40) // needs 2*3=6 blocks > 4
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// Failed alloc must not leak.
	if m.FreeBlocks() != 4 {
		t.Fatalf("failed alloc leaked blocks: free=%d", m.FreeBlocks())
	}
}

// extendID grows request id by n tokens through a freshly resolved handle.
func extendID(m *Manager, id RequestID, n int) error {
	return m.ExtendEntry(m.Resolve(nil, id), n)
}

func TestExtendAllocatesOnBlockBoundary(t *testing.T) {
	m := newTestManager(t, 100)
	mustOK(t, m.Alloc(1, 2, 16)) // exactly 1 block per group
	if m.UsedBlocks() != 2 {
		t.Fatalf("UsedBlocks=%d want 2", m.UsedBlocks())
	}
	mustOK(t, extendID(m, 1, 1)) // 17 tokens → 2 blocks per group
	if m.UsedBlocks() != 4 {
		t.Fatalf("UsedBlocks=%d want 4 after boundary crossing", m.UsedBlocks())
	}
	mustOK(t, extendID(m, 1, 14)) // 31 tokens → still 2 blocks per group
	if m.UsedBlocks() != 4 {
		t.Fatalf("UsedBlocks=%d want 4 within block", m.UsedBlocks())
	}
	mustOK(t, m.CheckInvariants())
}

func TestExtendNoSpace(t *testing.T) {
	m := newTestManager(t, 2)
	mustOK(t, m.Alloc(1, 2, 16))
	err := extendID(m, 1, 1)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if m.Tokens(1) != 16 {
		t.Fatal("failed extend must not change token count")
	}
}

func TestGrowShrinkGroups(t *testing.T) {
	m := newTestManager(t, 100)
	mustOK(t, m.Alloc(1, 2, 32))
	mustOK(t, m.GrowGroups(1, 3))
	if m.Groups(1) != 5 {
		t.Fatalf("Groups=%d want 5", m.Groups(1))
	}
	if m.UsedBlocks() != 10 {
		t.Fatalf("UsedBlocks=%d want 10", m.UsedBlocks())
	}
	mustOK(t, m.ShrinkGroups(1, 4))
	if m.Groups(1) != 1 || m.UsedBlocks() != 2 {
		t.Fatalf("after shrink: groups=%d used=%d", m.Groups(1), m.UsedBlocks())
	}
	// Shrinking to zero frees the request.
	mustOK(t, m.ShrinkGroups(1, 1))
	if m.Has(1) {
		t.Fatal("request should be gone after removing all groups")
	}
	mustOK(t, m.CheckInvariants())
}

func TestVictimLIFOPicksLatestArrival(t *testing.T) {
	m := newTestManager(t, 100)
	mustOK(t, m.Alloc(10, 1, 16))
	mustOK(t, m.Alloc(20, 1, 16))
	mustOK(t, m.Alloc(30, 1, 16))
	mustOK(t, m.CheckInvariants())
	v, ok := m.VictimLIFO()
	if !ok || v != 30 {
		t.Fatalf("victim=%v ok=%v want 30", v, ok)
	}
	if v, ok := m.VictimLIFOExcept(30); !ok || v != 20 {
		t.Fatalf("victim except 30=%v ok=%v want 20", v, ok)
	}
	if v, ok := m.VictimLIFOExcept(10); !ok || v != 30 {
		t.Fatalf("victim except 10=%v ok=%v want 30", v, ok)
	}
	m.Free(30)
	mustOK(t, m.CheckInvariants())
	v, ok = m.VictimLIFO()
	if !ok || v != 20 {
		t.Fatalf("victim=%v ok=%v want 20", v, ok)
	}
	m.Free(20)
	mustOK(t, m.CheckInvariants())
	if _, ok := m.VictimLIFOExcept(10); ok {
		t.Fatal("a device holding only the protected request should have no victim")
	}
	m.Free(10)
	mustOK(t, m.CheckInvariants())
	if _, ok := m.VictimLIFO(); ok {
		t.Fatal("empty device should have no victim")
	}
}

func TestPropertyNoLeaksUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{BlockTokens: 8, BytesPerGroupToken: 64, CapacityBytes: 8 * 64 * 50}
		m, err := NewManager(cfg)
		if err != nil {
			return false
		}
		live := map[RequestID]bool{}
		next := RequestID(0)
		for op := 0; op < 200; op++ {
			switch rng.Intn(5) {
			case 0, 1:
				id := next
				next++
				if m.Alloc(id, 1+rng.Intn(4), rng.Intn(40)) == nil {
					live[id] = true
				}
			case 2:
				for id := range live {
					_ = extendID(m, id, rng.Intn(10))
					break
				}
			case 3:
				for id := range live {
					m.Free(id)
					delete(live, id)
					break
				}
			case 4:
				for id := range live {
					if m.Groups(id) > 1 {
						_ = m.ShrinkGroups(id, 1)
					}
					break
				}
			}
			if m.CheckInvariants() != nil {
				return false
			}
		}
		for id := range live {
			m.Free(id)
		}
		return m.UsedBlocks() == 0 && m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	m := newTestManager(t, 10)
	if m.Utilization() != 0 {
		t.Fatal("fresh manager should be at 0 utilization")
	}
	mustOK(t, m.Alloc(1, 5, 16))
	if got := m.Utilization(); got != 0.5 {
		t.Fatalf("Utilization=%g want 0.5", got)
	}
}
