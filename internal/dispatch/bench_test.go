package dispatch

import (
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/profile"
)

func benchWorkers() []Worker {
	return testWorkersForBench(1e12, 1e12, 1e12, 1e12, 1e12, 1e12)
}

// testWorkersForBench mirrors the test helper without *testing.T.
func testWorkersForBench(primaryCap float64, attnCaps ...float64) []Worker {
	attn := profile.AttnModel{A: 25e-9, B: 1.0 / 1600e9, C: 30e-6}
	slow := profile.AttnModel{A: 60e-9, B: 1.0 / 650e9, C: 35e-6}
	net := profile.NetModel{Gamma: 1.0 / 11e9, Beta: 30e-6}
	ws := []Worker{{ID: 0, Attn: attn, Primary: true, CapacityBytes: primaryCap}}
	for i, c := range attnCaps {
		ws = append(ws, Worker{
			ID:            hardware.DeviceID(i + 1),
			Attn:          slow,
			Net:           net,
			CapacityBytes: c,
		})
	}
	return ws
}

// BenchmarkDispatchLP measures two admission solves (Eq. 7) on a fresh
// dispatcher.
func BenchmarkDispatchLP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := New(model.Llama70B, benchWorkers())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range []NewRequest{{ID: 1, ContextLen: 1200}, {ID: 2, ContextLen: 600}} {
			if _, err := d.Dispatch(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDispatchGreedy measures the greedy alternative.
func BenchmarkDispatchGreedy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := New(model.Llama70B, benchWorkers())
		if err != nil {
			b.Fatal(err)
		}
		d.SetPolicy(PolicyGreedy)
		for _, r := range []NewRequest{{ID: 1, ContextLen: 1200}, {ID: 2, ContextLen: 600}} {
			if _, err := d.Dispatch(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIdealAttnTime measures the §5.3.1 relaxation with a full batch.
func BenchmarkIdealAttnTime(b *testing.B) {
	d, err := New(model.Llama13B, benchWorkers())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if _, err := d.Dispatch(NewRequest{ID: int64(i), ContextLen: 400 + 37*(i%19)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.IdealAttnTime(); err != nil {
			b.Fatal(err)
		}
	}
}
