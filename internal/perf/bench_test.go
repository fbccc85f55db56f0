package perf

import (
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
)

// BenchmarkDenseLayerTime measures the hot path of every engine iteration.
func BenchmarkDenseLayerTime(b *testing.B) {
	e := newEst(b, model.Llama70B)
	for i := 0; i < b.N; i++ {
		d := e.Compile(hardware.A100, 4)
		_ = d.DenseLayerTime(64)
	}
}

// BenchmarkAttnDecodeTime measures the ground-truth attention model.
func BenchmarkAttnDecodeTime(b *testing.B) {
	e := newEst(b, model.Llama70B)
	for i := 0; i < b.N; i++ {
		d := e.Compile(hardware.P100, 1)
		_ = d.AttnDecodeTime(2048, 1<<30)
	}
}

// BenchmarkPrefillCost measures a full prefill estimate: compile the
// device, then price dense, prompt attention and LM head over 40 layers.
func BenchmarkPrefillCost(b *testing.B) {
	e := newEst(b, model.Llama13B)
	prompts := []int{512, 900, 300, 1400}
	for i := 0; i < b.N; i++ {
		d := e.Compile(hardware.A100, 4)
		_ = 40*d.DenseLayerTime(3112) + 40*d.AttnPrefillLayerTime(prompts) + d.LMHeadTime(len(prompts))
	}
}
