package kvcache

import "testing"

// BenchmarkExtendHandle measures the block-manager hot path: one request's
// lifecycle (alloc, 256 decode extends through a cached entry handle, the
// Hetis decode-step path, free).
func BenchmarkExtendHandle(b *testing.B) {
	cfg := Config{BlockTokens: 16, BytesPerGroupToken: 20480, CapacityBytes: 8 << 30}
	m, err := NewManager(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := RequestID(i)
		if err := m.Alloc(id, 8, 512); err != nil {
			b.Fatal(err)
		}
		var e *Entry
		for k := 0; k < 256; k++ {
			e = m.Resolve(e, id)
			if err := m.ExtendEntry(e, 1); err != nil {
				b.Fatal(err)
			}
		}
		m.Free(id)
	}
}

// BenchmarkPlanMigration measures the Hauler's overlap-aware planning.
func BenchmarkPlanMigration(b *testing.B) {
	old := []int{12, 4, 0, 8}
	new := []int{4, 8, 8, 4}
	var moves []Move
	for i := 0; i < b.N; i++ {
		var err error
		if moves, err = PlanMigration(moves[:0], old, new, 1500, 20480); err != nil {
			b.Fatal(err)
		}
	}
}
