// Package perf is the ground-truth analytic cost model of the simulated
// cluster: given a GPU spec, a model architecture and a batch description it
// predicts how long each LLM module takes, and how long tensors take to move
// between devices. Every scheduling layer above (Profiler, Parallelizer,
// Dispatcher, engines) consumes times produced here.
//
// The model is roofline-shaped: a module costs
//
//	max(FLOPs / effFLOPS(rows), bytes / effBandwidth) + kernels·launchOverhead
//
// where effFLOPS saturates with the number of matmul rows (small decode
// batches underutilize wide GPUs, and old architectures need many rows to
// reach peak). Constants were calibrated against Table 1 of the paper
// (OPT-2.7B iteration times on A100 / RTX 3090 / P100); the calibration test
// lives in table1_test.go.
package perf

import (
	"fmt"
	"math"

	"hetis/internal/hardware"
	"hetis/internal/model"
)

// kernel-count constants: how many kernel-launch rounds each module costs
// per layer. They scale the fixed overhead term that dominates small decode
// batches, especially on old GPUs.
const (
	kernelsQKV   = 1.5 // fused QKV + rotary/norm epilogue
	kernelsAttn  = 1.0 // fused paged attention (cache store included)
	kernelsProj  = 1.0
	kernelsMLP   = 2.5 // two or three matmuls + activation
	kernelsDense = kernelsQKV + kernelsProj + kernelsMLP
)

// satRows is the matmul row count at which a GPU reaches half of its dense
// efficiency. Modern tensor-core parts saturate quickly; the P100 needs far
// more rows, which is what makes its small-batch dense decode
// disproportionately slow (Fig. 2a of the paper).
func satRows(spec hardware.GPUSpec) float64 {
	switch {
	case spec.Tier >= 60: // A100, H100
		return 8
	case spec.Tier >= 35: // 3090, A40, V100, L4
		return 12
	case spec.Tier >= 20: // T4
		return 18
	default: // P100 and older
		return 24
	}
}

// Estimator predicts module times for one model on arbitrary devices.
type Estimator struct {
	cfg model.Config
}

// New returns an estimator for the model configuration, or why the
// configuration is invalid.
func New(cfg model.Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("perf: invalid model: %w", err)
	}
	return &Estimator{cfg: cfg}, nil
}

// Config returns the model the estimator was built for.
func (e *Estimator) Config() model.Config { return e.cfg }

// DeviceCost is the estimator's cost record for one GPU spec at one
// tensor-parallel degree: every model and device constant the module
// formulas read, derived once by Compile, so a caller that prices many
// iterations on one device reads fields instead of re-deriving them from
// value copies of the spec and the model config. Every module time is
// priced through a compiled record, so each module has one formula.
type DeviceCost struct {
	tp   float64 // the tensor-parallel degree, at least 1
	lmTP float64 // the degree as given, which the LM head divides by

	flops   float64 // effective dense FLOP/s
	satRows float64
	bw      float64 // effective memory bandwidth

	denseFlops   float64 // dense FLOPs per token in one layer
	weightBytes  float64 // one layer's weight bytes divided by tp
	hiddenBytes  int64   // hidden-state bytes per token
	attnCoef     float64 // 4·Heads·HeadDim, the leading factor of the prefill attention FLOPs
	kvTokenLayer float64 // KV bytes per token in one layer
	hidden       float64
	vocab        float64
	lmBytes      float64 // LM head weight bytes divided by lmTP

	// denseLaunch, attnLaunch and lmLaunch are each module's
	// kernels × LaunchOverhead term; perHead is LaunchOverhead·1e-3, the
	// decode attention kernel's per-head issue cost.
	denseLaunch, attnLaunch, lmLaunch float64
	perHead                           float64
}

// Compile derives the cost record of spec at tensor-parallel degree tp.
func (e *Estimator) Compile(spec hardware.GPUSpec, tp int) DeviceCost {
	c := &e.cfg
	d := DeviceCost{
		lmTP:         float64(tp),
		flops:        spec.EffFLOPS(),
		satRows:      satRows(spec),
		bw:           spec.EffBandwidth(),
		denseFlops:   c.DenseFlopsPerToken(),
		hiddenBytes:  c.HiddenStateBytes(1),
		attnCoef:     4 * float64(c.Heads) * float64(c.HeadDim()),
		kvTokenLayer: float64(c.KVBytesPerTokenLayer()),
		hidden:       float64(c.Hidden),
		vocab:        float64(c.Vocab),
		lmBytes:      float64(c.Hidden) * float64(c.Vocab) * float64(c.BytesPerParam) / float64(tp),
		denseLaunch:  kernelsDense * spec.LaunchOverhead,
		attnLaunch:   kernelsAttn * spec.LaunchOverhead,
		lmLaunch:     1 * spec.LaunchOverhead,
		perHead:      spec.LaunchOverhead * 1e-3,
	}
	if tp < 1 {
		tp = 1
	}
	d.tp = float64(tp)
	d.weightBytes = float64(c.LayerWeightBytes()) / float64(tp)
	return d
}

// roofline combines compute and memory cost with the fixed kernel
// overhead launch. The achievable FLOP/s saturates with the matmul row
// count (at least one): small decode batches underutilize wide GPUs.
func (d *DeviceCost) roofline(flops, bytes, rows, launch float64) float64 {
	if rows <= 0 {
		rows = 1
	}
	comp := flops / (d.flops * rows / (rows + d.satRows))
	mem := bytes / d.bw
	return math.Max(comp, mem) + launch
}

// HiddenStateBytes is the activation size of n tokens, the unit moved
// between pipeline stages and reduced across a tensor-parallel group.
func (d *DeviceCost) HiddenStateBytes(n int) int64 { return int64(n) * d.hiddenBytes }

// DenseLayerTime is the time for the parameter-carrying modules (QKV
// projection, output projection, MLP) of ONE layer processing tokens rows,
// with the layer's weights sharded tp ways (tensor parallelism divides both
// FLOPs and weight traffic). Weight bytes are charged because at decode
// batch sizes dense modules are weight-bandwidth-bound.
func (d *DeviceCost) DenseLayerTime(tokens int) float64 {
	if tokens <= 0 {
		return 0
	}
	t := float64(tokens)
	flops := t * d.denseFlops / d.tp
	actBytes := float64(d.HiddenStateBytes(tokens)) * 4 // read/write around each module
	return d.roofline(flops, d.weightBytes+actBytes, t, d.denseLaunch)
}

// LMHeadTime is the final vocabulary projection for tokens rows, sharded tp
// ways. Only the last pipeline stage pays it.
func (d *DeviceCost) LMHeadTime(tokens int) float64 {
	if tokens <= 0 {
		return 0
	}
	t := float64(tokens)
	flops := 2 * t * d.hidden * d.vocab / d.lmTP
	return d.roofline(flops, d.lmBytes, t, d.lmLaunch)
}

// AttnPrefillLayerTime is the attention-score computation of one layer for a
// set of prompts being prefilled together, with heads sharded tp ways.
// Prefill attention is compute-bound (quadratic in prompt length).
func (d *DeviceCost) AttnPrefillLayerTime(promptLens []int) float64 {
	if len(promptLens) == 0 {
		return 0
	}
	var flops float64
	var rows float64
	var kvBytes float64
	for _, l := range promptLens {
		lf := float64(l)
		flops += d.attnCoef * lf * lf / 2 // causal: 4·H·D·l²/2 per layer
		rows += lf
		kvBytes += lf * d.kvTokenLayer
	}
	flops /= d.tp
	kvBytes /= d.tp
	return d.roofline(flops, kvBytes, rows, d.attnLaunch)
}

// AttnDecodeTime is the ground truth for the quantity the paper models as
// τᵢ(t) = aᵢ·hᵢ(t) + bᵢ·gᵢ(t) + cᵢ (Eq. 3): the per-layer decode-attention
// time on a device computing `heads` query heads whose footprint on the
// device is cacheBytes of K/V for that layer. It does not depend on the
// tensor-parallel degree.
//
// The decode attention kernel is memory-bound (it streams the KV cache from
// HBM once) with a per-head scheduling cost and a fixed launch cost. A mild
// bandwidth-saturation term makes the ground truth not exactly linear, so
// the Profiler's linear fit is an approximation, as it is on real hardware.
func (d *DeviceCost) AttnDecodeTime(heads int, cacheBytes int64) float64 {
	if heads <= 0 || cacheBytes <= 0 {
		return 0
	}
	h := float64(heads)
	g := float64(cacheBytes)

	// Per-head issue cost: each query head is a separate block of work for
	// the paged-attention kernel (q·Kᵀ GEMV setup, softmax, A·V). Scaled
	// off the launch overhead so older parts pay proportionally more;
	// ≈25 ns per head on A100-class GPUs, matching the slope of Fig. 7(c).
	issue := h * d.perHead

	// Cache streaming, with saturation: small transfers do not reach full
	// HBM bandwidth. Saturation half-point at 8 MB.
	const halfSat = 8 << 20
	bw := d.bw * g / (g + halfSat)
	stream := g / bw

	// Head-contention term: beyond the SM count, heads queue behind each
	// other; modelled as a soft quadratic with a large scale so the ground
	// truth stays near-linear (Fig. 7(c)) yet not exactly linear.
	contention := issue * h / 16384

	return issue + stream + contention + d.attnLaunch
}

// CacheBytesPerLayer is the single-layer KV footprint of `heads` query
// heads over ctxLen tokens. Grouped query heads (GQA) share one KV head's
// cache, so the footprint scales with ceil(heads/r).
func (e *Estimator) CacheBytesPerLayer(heads, ctxLen int) int64 {
	r := e.cfg.GroupRatio()
	groups := (heads + r - 1) / r
	return int64(groups) * int64(ctxLen) * e.cfg.KVBytesPerTokenHeadGroup()
}

// --- Communication ----------------------------------------------------------

// P2PTime is a point-to-point transfer over the link.
func P2PTime(link hardware.LinkSpec, bytes int64) float64 {
	return link.TransferTime(bytes)
}

// AllReduceTime models a ring all-reduce of n bytes among p participants
// over the given link: 2·(p−1) steps each moving n/p bytes.
func AllReduceTime(link hardware.LinkSpec, bytes int64, p int) float64 {
	if p <= 1 || bytes <= 0 {
		return 0
	}
	steps := 2 * (p - 1)
	chunk := float64(bytes) / float64(p)
	return float64(steps) * (link.Alpha + chunk/link.Beta)
}

// HeadScatterBytes is the per-token traffic of offloading `heads` query
// heads to a remote attention worker, following Eq. 4's volume model
// d = (2 + 2/r)·h: the q vector and attention result (one head each) plus
// the K and V vectors shared across the r heads of a group.
func (e *Estimator) HeadScatterBytes(heads int) int64 {
	r := float64(e.cfg.GroupRatio())
	perHead := (2 + 2/r) * float64(e.cfg.QHeadBytes())
	return int64(perHead * float64(heads))
}

// SeqScatterBytes is the per-token traffic of sequence-wise attention
// splitting for comparison (Fig. 5): the full q vector of every request
// chunk must reach each worker holding part of the sequence, and the full
// partial attention value plus softmax statistics come back.
func (e *Estimator) SeqScatterBytes() int64 {
	// q out (all H heads) + partial result back (all H heads) + per-head
	// softmax max/sum statistics (2 floats per head, negligible but
	// included).
	full := 2 * int64(e.cfg.Heads) * int64(e.cfg.QHeadBytes())
	stats := int64(e.cfg.Heads) * 2 * 4
	return full + stats
}
