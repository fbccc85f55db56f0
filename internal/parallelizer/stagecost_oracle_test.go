package parallelizer

import (
	"encoding/binary"
	"math"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/perf"
)

// The frozen per-call cost model the compiled StageCost replaced: every
// module formula re-derived from value copies of the GPU spec and the
// model config on each call. FuzzStageCost holds the compiled record, and
// the estimator's per-call methods built on it, to these bit for bit.

func oracleSatRows(spec hardware.GPUSpec) float64 {
	switch {
	case spec.Tier >= 60:
		return 8
	case spec.Tier >= 35:
		return 12
	case spec.Tier >= 20:
		return 18
	default:
		return 24
	}
}

func oracleEffFLOPS(spec hardware.GPUSpec, rows float64) float64 {
	if rows <= 0 {
		rows = 1
	}
	sat := oracleSatRows(spec)
	return spec.EffFLOPS() * rows / (rows + sat)
}

func oracleRoofline(spec hardware.GPUSpec, flops float64, bytes float64, rows float64, kernels float64) float64 {
	comp := flops / oracleEffFLOPS(spec, rows)
	mem := bytes / spec.EffBandwidth()
	return math.Max(comp, mem) + kernels*spec.LaunchOverhead
}

func oracleDenseLayerTime(cfg model.Config, spec hardware.GPUSpec, tokens int, tp int) float64 {
	if tokens <= 0 {
		return 0
	}
	if tp < 1 {
		tp = 1
	}
	t := float64(tokens)
	flops := t * cfg.DenseFlopsPerToken() / float64(tp)
	weightBytes := float64(cfg.LayerWeightBytes()) / float64(tp)
	actBytes := float64(cfg.HiddenStateBytes(tokens)) * 4
	return oracleRoofline(spec, flops, weightBytes+actBytes, t, 1.5+1.0+2.5)
}

func oracleLMHeadTime(cfg model.Config, spec hardware.GPUSpec, tokens, tp int) float64 {
	if tokens <= 0 {
		return 0
	}
	t := float64(tokens)
	flops := 2 * t * float64(cfg.Hidden) * float64(cfg.Vocab) / float64(tp)
	bytes := float64(cfg.Hidden) * float64(cfg.Vocab) * float64(cfg.BytesPerParam) / float64(tp)
	return oracleRoofline(spec, flops, bytes, t, 1)
}

// oracleAttnFlopsPrefill counts the attention work of a full prompt of
// promptLen tokens (causal, so roughly promptLen²/2 interactions per head).
func oracleAttnFlopsPrefill(cfg model.Config, promptLen int) float64 {
	l := float64(promptLen)
	return 4 * float64(cfg.Heads) * float64(cfg.HeadDim()) * l * l / 2
}

func oracleAttnPrefillLayerTime(cfg model.Config, spec hardware.GPUSpec, promptLens []int, tp int) float64 {
	if len(promptLens) == 0 {
		return 0
	}
	if tp < 1 {
		tp = 1
	}
	var flops float64
	var rows float64
	var kvBytes float64
	for _, l := range promptLens {
		flops += oracleAttnFlopsPrefill(cfg, l)
		rows += float64(l)
		kvBytes += float64(l) * float64(cfg.KVBytesPerTokenLayer())
	}
	flops /= float64(tp)
	kvBytes /= float64(tp)
	return oracleRoofline(spec, flops, kvBytes, rows, 1.0)
}

func oracleAttnDecodeTime(spec hardware.GPUSpec, heads int, cacheBytes int64) float64 {
	if heads <= 0 || cacheBytes <= 0 {
		return 0
	}
	h := float64(heads)
	g := float64(cacheBytes)
	perHead := spec.LaunchOverhead * 1e-3
	issue := h * perHead
	const halfSat = 8 << 20
	bw := spec.EffBandwidth() * g / (g + halfSat)
	stream := g / bw
	contention := issue * h / 16384
	return issue + stream + contention + 1.0*spec.LaunchOverhead
}

// oracleStageDecodeTime is the frozen StageDecodeTime.
func oracleStageDecodeTime(cfg model.Config, st Stage, tokens int, link hardware.LinkSpec) float64 {
	dense := float64(st.Layers) * oracleDenseLayerTime(cfg, st.Spec, tokens, st.TP)
	var comm float64
	if st.TP > 1 {
		perLayer := 2 * perf.AllReduceTime(link, cfg.HiddenStateBytes(tokens), st.TP)
		comm += float64(st.Layers) * perLayer
	}
	if st.PP > 1 {
		comm += float64(st.PP-1) * perf.P2PTime(link, cfg.HiddenStateBytes(tokens))
	}
	return dense + comm
}

// oracleStagePrefillTime is the frozen StagePrefillTime.
func oracleStagePrefillTime(cfg model.Config, st Stage, promptLens []int, link hardware.LinkSpec) float64 {
	if len(promptLens) == 0 {
		return 0
	}
	total := 0
	for _, l := range promptLens {
		total += l
	}
	dense := float64(st.Layers) * oracleDenseLayerTime(cfg, st.Spec, total, st.TP)
	attn := float64(st.Layers) * oracleAttnPrefillLayerTime(cfg, st.Spec, promptLens, st.TP)
	var comm float64
	if st.TP > 1 {
		comm += float64(st.Layers) * 2 * perf.AllReduceTime(link, cfg.HiddenStateBytes(total), st.TP)
	}
	if st.PP > 1 {
		comm += float64(st.PP-1) * perf.P2PTime(link, cfg.HiddenStateBytes(total))
	}
	return dense + attn + comm
}

var (
	costGPUs   = []hardware.GPUSpec{hardware.A100, hardware.H100, hardware.V100, hardware.A40, hardware.RTX3090, hardware.L4, hardware.T4, hardware.P100}
	costModels = []model.Config{model.OPT27B, model.OPT13B, model.OPT30B, model.Llama13B, model.Llama70B}
	costLinks  = []hardware.LinkSpec{hardware.Loopback, hardware.PCIe3x16, hardware.PCIe4x16, hardware.NVLink3, hardware.LAN100G, hardware.LAN25G}
)

// FuzzStageCost checks the compiled stage record against the frozen
// per-call cost model, bit for bit: DecodeTime, PrefillTime, and the dense
// layer, prefill attention, decode attention and LM head modules, on
// every GPU and model preset at TP 1–8 and PP 1–2. Prompts are two bytes
// each (lengths 0–8191); tokens, heads and cache bytes may be zero or
// negative.
func FuzzStageCost(f *testing.F) {
	for hw := range costGPUs {
		for m := range costModels {
			f.Add(uint8(hw), uint8(m), uint8(hw+m), uint8(m), uint8(hw), uint8(40), int32(1+hw*37), int32(64*(m+1)), int64(hw+1)<<20, []byte{byte(m), byte(hw), 0, 0, 7, 3})
		}
	}
	f.Add(uint8(0), uint8(0), uint8(7), uint8(1), uint8(4), uint8(0), int32(0), int32(0), int64(0), []byte{})
	f.Add(uint8(7), uint8(4), uint8(3), uint8(0), uint8(5), uint8(80), int32(-5), int32(-1), int64(-1), []byte{0})
	f.Fuzz(func(t *testing.T, hw, mdl, tp, pp, link, layers uint8, tokens, heads int32, cache int64, raw []byte) {
		cfg := costModels[int(mdl)%len(costModels)]
		st := Stage{
			Spec:   costGPUs[int(hw)%len(costGPUs)],
			TP:     1 + int(tp)%8,
			PP:     1 + int(pp)%2,
			Layers: int(layers),
		}
		ln := costLinks[int(link)%len(costLinks)]
		var prompts []int
		for i := 0; i+2 <= len(raw) && len(prompts) < 64; i += 2 {
			prompts = append(prompts, int(binary.LittleEndian.Uint16(raw[i:]))%8192)
		}
		est := newEst(t, cfg)
		sc := CompileStage(est, st, ln)
		n := int(tokens)
		check := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s on %s/%s tp=%d pp=%d layers=%d: compiled %v, frozen %v", what, st.Spec.Name, cfg.Name, st.TP, st.PP, st.Layers, got, want)
			}
		}
		check("DecodeTime", sc.DecodeTime(n), oracleStageDecodeTime(cfg, st, n, ln))
		check("PrefillTime", sc.PrefillTime(prompts), oracleStagePrefillTime(cfg, st, prompts, ln))
		check("AttnDecodeTime", sc.AttnDecodeTime(int(heads), cache), oracleAttnDecodeTime(st.Spec, int(heads), cache))
		check("LMHeadTime", sc.LMHeadTime(n), oracleLMHeadTime(cfg, st.Spec, n, st.TP))
		check("DenseLayerTime", sc.DenseLayerTime(n), oracleDenseLayerTime(cfg, st.Spec, n, st.TP))
		check("AttnPrefillLayerTime", sc.AttnPrefillLayerTime(prompts), oracleAttnPrefillLayerTime(cfg, st.Spec, prompts, st.TP))
	})
}
