package parallelizer

import (
	"hetis/internal/hardware"
	"hetis/internal/perf"
)

// StageCost is a pipeline stage's cost record: its device's constants
// compiled once (perf.DeviceCost), its layout and the link its collectives
// run over. Engines compile one per stage at build and price every
// iteration from it, so the per-request path reads fields instead of
// re-deriving the model and device constants.
type StageCost struct {
	perf.DeviceCost
	layers, tp, pp int
	link           hardware.LinkSpec
}

// CompileStage builds st's cost record; link is the channel the stage's
// collectives run over (StageLink).
func CompileStage(est *perf.Estimator, st Stage, link hardware.LinkSpec) StageCost {
	return StageCost{DeviceCost: est.Compile(st.Spec, st.TP), layers: st.Layers, tp: st.TP, pp: st.PP, link: link}
}

// DecodeTime models one decode iteration of `tokens` sequences through the
// stage: sub-stage dense compute, per-layer tensor-parallel all-reduces,
// and pipeline hops inside the stage.
func (c *StageCost) DecodeTime(tokens int) float64 {
	dense := float64(c.layers) * c.DenseLayerTime(tokens)
	var comm float64
	if c.tp > 1 {
		perLayer := 2 * perf.AllReduceTime(c.link, c.HiddenStateBytes(tokens), c.tp)
		comm += float64(c.layers) * perLayer
	}
	if c.pp > 1 {
		comm += float64(c.pp-1) * perf.P2PTime(c.link, c.HiddenStateBytes(tokens))
	}
	return dense + comm
}

// PrefillTime models prefilling prompts with the given lengths through
// the stage (dense + prompt attention + collectives).
func (c *StageCost) PrefillTime(promptLens []int) float64 {
	if len(promptLens) == 0 {
		return 0
	}
	total := 0
	for _, l := range promptLens {
		total += l
	}
	dense := float64(c.layers) * c.DenseLayerTime(total)
	attn := float64(c.layers) * c.AttnPrefillLayerTime(promptLens)
	var comm float64
	if c.tp > 1 {
		comm += float64(c.layers) * 2 * perf.AllReduceTime(c.link, c.HiddenStateBytes(total), c.tp)
	}
	if c.pp > 1 {
		comm += float64(c.pp-1) * perf.P2PTime(c.link, c.HiddenStateBytes(total))
	}
	return dense + attn + comm
}

// StageLink returns the slowest link inside a stage's device set — the
// bottleneck channel for its collectives.
func StageLink(cluster *hardware.Cluster, st Stage) hardware.LinkSpec {
	if len(st.Devices) < 2 {
		return hardware.Loopback
	}
	worst := cluster.Link(st.Devices[0], st.Devices[1])
	for i := 0; i < len(st.Devices); i++ {
		for j := i + 1; j < len(st.Devices); j++ {
			l := cluster.Link(st.Devices[i], st.Devices[j])
			if l.Beta < worst.Beta {
				worst = l
			}
		}
	}
	return worst
}
