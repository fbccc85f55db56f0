package perf

import (
	"math"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
)

// Table1Scenario reproduces the setting of the paper's Table 1: OPT-2.7B,
// a prefill batch of 3 requests and a decode batch of 25 requests. The
// paper does not state the prompt/context lengths; we use ShareGPT-typical
// values (512-token prompts, ~200-token decode contexts), which reproduce
// the published ratios.
const (
	table1PromptLen = 512
	table1DecodeCtx = 200
	table1Prefills  = 3
	table1Decodes   = 25
)

// table1Times returns (prefill, decode) full-model iteration times on spec.
func table1Times(t *testing.T, spec hardware.GPUSpec) (prefill, decode float64) {
	e := newEst(t, model.OPT27B)
	cfg := model.OPT27B
	prompts := make([]int, table1Prefills)
	for i := range prompts {
		prompts[i] = table1PromptLen
	}
	d := e.Compile(spec, 1)
	layers := float64(cfg.Layers)
	prefill = layers*d.DenseLayerTime(table1Prefills*table1PromptLen) + layers*d.AttnPrefillLayerTime(prompts) + d.LMHeadTime(table1Prefills)

	decode = layers*d.DenseLayerTime(table1Decodes) + d.LMHeadTime(table1Decodes)
	heads := table1Decodes * cfg.Heads
	cache := e.CacheBytesPerLayer(cfg.Heads, table1DecodeCtx) * table1Decodes
	decode += layers * d.AttnDecodeTime(heads, cache)
	return prefill, decode
}

func TestTable1AbsoluteTimes(t *testing.T) {
	// Paper values: prefill 0.06 / 0.147 / 1.47 s; decode 0.0097 / 0.0143 /
	// 0.077 s for A100 / 3090 / P100. We require agreement within 35%
	// absolute (the simulator is calibrated on ratios, not absolutes).
	cases := []struct {
		spec                    hardware.GPUSpec
		wantPrefill, wantDecode float64
		tolPrefill, tolDecode   float64
	}{
		{hardware.A100, 0.060, 0.0097, 0.35, 0.35},
		{hardware.RTX3090, 0.147, 0.0143, 0.35, 0.35},
		{hardware.P100, 1.47, 0.077, 0.35, 0.35},
	}
	for _, tc := range cases {
		p, d := table1Times(t, tc.spec)
		t.Logf("%s: prefill=%.4fs (paper %.4f)  decode=%.5fs (paper %.5f)",
			tc.spec.Name, p, tc.wantPrefill, d, tc.wantDecode)
		if rel := math.Abs(p-tc.wantPrefill) / tc.wantPrefill; rel > tc.tolPrefill {
			t.Errorf("%s prefill %.4fs deviates %.0f%% from paper %.4fs", tc.spec.Name, p, rel*100, tc.wantPrefill)
		}
		if rel := math.Abs(d-tc.wantDecode) / tc.wantDecode; rel > tc.tolDecode {
			t.Errorf("%s decode %.5fs deviates %.0f%% from paper %.5fs", tc.spec.Name, d, rel*100, tc.wantDecode)
		}
	}
}

func TestTable1Ratios(t *testing.T) {
	// The ratios are what the scheduler sees; they must match closely.
	// Paper: prefill A100 is 2.45x faster than 3090 and 24.5x faster than
	// P100; decode 1.47x and 7.93x.
	pA, dA := table1Times(t, hardware.A100)
	p3, d3 := table1Times(t, hardware.RTX3090)
	pP, dP := table1Times(t, hardware.P100)

	check := func(name string, got, want, tol float64) {
		t.Helper()
		t.Logf("%s: got %.2fx want %.2fx", name, got, want)
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s ratio %.2f deviates from paper %.2f beyond %.0f%%", name, got, want, tol*100)
		}
	}
	check("prefill A100/3090", p3/pA, 2.45, 0.25)
	check("prefill A100/P100", pP/pA, 24.5, 0.25)
	check("decode A100/3090", d3/dA, 1.47, 0.25)
	check("decode A100/P100", dP/dA, 7.93, 0.25)
}
