// Package model describes transformer LLM architectures at the granularity
// Hetis schedules them: the parameter-carrying dense modules (QKV
// projection, attention output projection, MLP) and the parameter-free
// Attention module that operates on the KV cache head by head.
//
// All byte quantities assume the dtype given by BytesPerParam (FP16 by
// default). FLOP counts use the standard 2·m·k·n convention for an
// (m×k)·(k×n) matmul.
package model

import (
	"fmt"
	"strings"
)

// Config is one transformer architecture.
type Config struct {
	Name    string
	Layers  int // number of transformer layers
	Hidden  int // model (embedding) dimension
	Heads   int // query heads per layer
	KVHeads int // key/value heads per layer (== Heads for MHA, fewer for GQA)
	FFN     int // feed-forward intermediate dimension
	Vocab   int
	// GLU marks gated MLPs (SwiGLU, as in Llama): three weight matrices
	// instead of two.
	GLU bool
	// BytesPerParam is the serving dtype width (2 for FP16).
	BytesPerParam int
	// MaxSeqLen is the model's context window (0 = unlimited). Serving
	// systems truncate requests to this length.
	MaxSeqLen int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model %s: Layers must be positive", c.Name)
	case c.Hidden <= 0:
		return fmt.Errorf("model %s: Hidden must be positive", c.Name)
	case c.Heads <= 0:
		return fmt.Errorf("model %s: Heads must be positive", c.Name)
	case c.KVHeads <= 0 || c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model %s: KVHeads must divide Heads (%d %% %d != 0)", c.Name, c.Heads, c.KVHeads)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: Heads must divide Hidden", c.Name)
	case c.FFN <= 0:
		return fmt.Errorf("model %s: FFN must be positive", c.Name)
	case c.BytesPerParam <= 0:
		return fmt.Errorf("model %s: BytesPerParam must be positive", c.Name)
	case c.MaxSeqLen < 0:
		return fmt.Errorf("model %s: negative MaxSeqLen", c.Name)
	}
	return nil
}

// HeadDim is the per-head dimension.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// GroupRatio is r in the paper: query heads per key/value head group. For
// MHA models it is 1; for Llama-70B it is 8.
func (c Config) GroupRatio() int { return c.Heads / c.KVHeads }

// IsGQA reports whether the model groups query heads over fewer KV heads.
func (c Config) IsGQA() bool { return c.KVHeads < c.Heads }

// --- Parameter accounting -------------------------------------------------

// attnParamsPerLayer counts attention projection weights: Wq (H×H), Wk and
// Wv (H × KVHeads·HeadDim each), and Wo (H×H).
func (c Config) attnParamsPerLayer() int64 {
	h := int64(c.Hidden)
	kv := int64(c.KVHeads * c.HeadDim())
	return h*h + 2*h*kv + h*h
}

// mlpParamsPerLayer counts MLP weights: 2·H·F for plain MLPs, 3·H·F for
// gated (GLU) MLPs.
func (c Config) mlpParamsPerLayer() int64 {
	mats := int64(2)
	if c.GLU {
		mats = 3
	}
	return mats * int64(c.Hidden) * int64(c.FFN)
}

// ParamsPerLayer is the weight count of one transformer layer (projections
// plus MLP; norm parameters are negligible and ignored).
func (c Config) ParamsPerLayer() int64 {
	return c.attnParamsPerLayer() + c.mlpParamsPerLayer()
}

// Params approximates the total parameter count, including embeddings and
// the tied LM head.
func (c Config) Params() int64 {
	emb := int64(c.Vocab) * int64(c.Hidden)
	return int64(c.Layers)*c.ParamsPerLayer() + emb
}

// WeightBytes is the serving memory footprint of the full model.
func (c Config) WeightBytes() int64 {
	return c.Params() * int64(c.BytesPerParam)
}

// LayerWeightBytes is the footprint of a single layer.
func (c Config) LayerWeightBytes() int64 {
	return c.ParamsPerLayer() * int64(c.BytesPerParam)
}

// --- KV cache accounting ---------------------------------------------------

// KVBytesPerTokenLayer is the cache footprint of one token in one layer
// across all KV heads: K and V vectors of KVHeads·HeadDim each.
func (c Config) KVBytesPerTokenLayer() int64 {
	return 2 * int64(c.KVHeads) * int64(c.HeadDim()) * int64(c.BytesPerParam)
}

// KVBytesPerToken is the cache footprint of one token across all layers.
func (c Config) KVBytesPerToken() int64 {
	return int64(c.Layers) * c.KVBytesPerTokenLayer()
}

// KVBytesPerTokenHeadGroup is the footprint of one token in one layer for a
// single KV head group (one KV head serving GroupRatio query heads). This is
// the granularity at which Hetis places cache on devices.
func (c Config) KVBytesPerTokenHeadGroup() int64 {
	return 2 * int64(c.HeadDim()) * int64(c.BytesPerParam)
}

// --- FLOP accounting per module --------------------------------------------

// QKVFlopsPerToken counts the Q, K and V projections for one token in one
// layer.
func (c Config) QKVFlopsPerToken() float64 {
	h := float64(c.Hidden)
	kv := float64(c.KVHeads * c.HeadDim())
	return 2*h*h + 2*2*h*kv
}

// OutProjFlopsPerToken counts the attention output projection.
func (c Config) OutProjFlopsPerToken() float64 {
	h := float64(c.Hidden)
	return 2 * h * h
}

// MLPFlopsPerToken counts the feed-forward network for one token in one
// layer.
func (c Config) MLPFlopsPerToken() float64 {
	mats := 2.0
	if c.GLU {
		mats = 3.0
	}
	return mats * 2 * float64(c.Hidden) * float64(c.FFN)
}

// DenseFlopsPerToken is everything with parameters: QKV + output projection
// + MLP. This is the work Hetis restricts to primary workers.
func (c Config) DenseFlopsPerToken() float64 {
	return c.QKVFlopsPerToken() + c.OutProjFlopsPerToken() + c.MLPFlopsPerToken()
}

// HiddenStateBytes is the activation size of n tokens (hidden dim × dtype),
// the unit transferred between pipeline stages.
func (c Config) HiddenStateBytes(nTokens int) int64 {
	return int64(nTokens) * int64(c.Hidden) * int64(c.BytesPerParam)
}

// QHeadBytes is the per-token size of a single query head's activation,
// the unit scattered to attention workers in head-wise parallelism.
func (c Config) QHeadBytes() int64 {
	return int64(c.HeadDim()) * int64(c.BytesPerParam)
}

// String renders a compact description.
func (c Config) String() string {
	kind := "MHA"
	if c.IsGQA() {
		kind = fmt.Sprintf("GQA r=%d", c.GroupRatio())
	}
	return fmt.Sprintf("%s (L=%d d=%d heads=%d %s, %.1fB params)",
		c.Name, c.Layers, c.Hidden, c.Heads, kind, float64(c.Params())/1e9)
}

// --- Presets ----------------------------------------------------------------

// Model presets used in the paper's evaluation plus OPT-2.7B from Table 1.
var (
	// OPT27B is OPT-2.7B (Table 1 microbenchmarks).
	OPT27B = Config{
		Name: "OPT-2.7B", Layers: 32, Hidden: 2560, Heads: 32, KVHeads: 32,
		FFN: 10240, Vocab: 50272, BytesPerParam: 2, MaxSeqLen: 2048,
	}
	// OPT13B is OPT-13B.
	OPT13B = Config{
		Name: "OPT-13B", Layers: 40, Hidden: 5120, Heads: 40, KVHeads: 40,
		FFN: 20480, Vocab: 50272, BytesPerParam: 2, MaxSeqLen: 2048,
	}
	// OPT30B is OPT-30B (Figs. 7, 9).
	OPT30B = Config{
		Name: "OPT-30B", Layers: 48, Hidden: 7168, Heads: 56, KVHeads: 56,
		FFN: 28672, Vocab: 50272, BytesPerParam: 2, MaxSeqLen: 2048,
	}
	// Llama13B is Llama-13B (Fig. 8), an MHA model.
	Llama13B = Config{
		Name: "Llama-13B", Layers: 40, Hidden: 5120, Heads: 40, KVHeads: 40,
		FFN: 13824, Vocab: 32000, GLU: true, BytesPerParam: 2, MaxSeqLen: 4096,
	}
	// Llama70B is Llama-2-70B (Figs. 2, 5, 10, 12, 13), a GQA model with
	// r = 8.
	Llama70B = Config{
		Name: "Llama-70B", Layers: 80, Hidden: 8192, Heads: 64, KVHeads: 8,
		FFN: 28672, Vocab: 32000, GLU: true, BytesPerParam: 2, MaxSeqLen: 4096,
	}
)

// presets lists every preset ByName resolves.
var presets = []Config{OPT27B, OPT13B, OPT30B, Llama13B, Llama70B}

// ByName resolves a preset config by case-insensitive name.
func ByName(name string) (Config, error) {
	for _, m := range presets {
		if strings.EqualFold(m.Name, name) {
			return m, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown preset %q", name)
}
