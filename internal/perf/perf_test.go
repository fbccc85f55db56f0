package perf

import (
	"math"
	"testing"
	"testing/quick"

	"hetis/internal/hardware"
	"hetis/internal/model"
)

func TestDenseLayerTimeBasics(t *testing.T) {
	e := New(model.OPT27B)
	if got := e.DenseLayerTime(hardware.A100, 0, 1); got != 0 {
		t.Errorf("zero tokens should cost 0, got %g", got)
	}
	t1 := e.DenseLayerTime(hardware.A100, 100, 1)
	t2 := e.DenseLayerTime(hardware.A100, 200, 1)
	if t2 <= t1 {
		t.Errorf("dense time should grow with tokens: %g vs %g", t1, t2)
	}
	// TP divides the work; with saturation and fixed overheads the speedup
	// is sublinear but must be a speedup.
	tp2 := e.DenseLayerTime(hardware.A100, 4096, 2)
	full := e.DenseLayerTime(hardware.A100, 4096, 1)
	if tp2 >= full {
		t.Errorf("tp=2 should be faster at large batch: %g vs %g", tp2, full)
	}
	if tp2 < full/2.5 {
		t.Errorf("tp=2 speedup unrealistically superlinear: %g vs %g", tp2, full)
	}
}

func TestDenseIterTimeScalesWithLayers(t *testing.T) {
	e := New(model.OPT27B)
	one := e.DenseIterTime(hardware.A100, 32, 1, 1)
	ten := e.DenseIterTime(hardware.A100, 32, 10, 1)
	if math.Abs(ten-10*one) > 1e-12 {
		t.Errorf("iter time not linear in layers: %g vs %g", ten, 10*one)
	}
}

func TestDecodeIsWeightBandwidthBound(t *testing.T) {
	// At decode batch sizes, dense module time on an A100 should track the
	// weight-read time, not the FLOP time.
	e := New(model.OPT27B)
	cfg := model.OPT27B
	got := e.DenseLayerTime(hardware.A100, 8, 1)
	weightRead := float64(cfg.LayerWeightBytes()) / hardware.A100.EffBandwidth()
	if got < weightRead {
		t.Errorf("decode layer time %g below weight-read floor %g", got, weightRead)
	}
	if got > 5*weightRead {
		t.Errorf("decode layer time %g far above weight-read floor %g", got, weightRead)
	}
}

func TestAttnDecodeTimeLinearity(t *testing.T) {
	// Fig. 7: attention time should be (near-)linear in the number of
	// heads at fixed cache, and in the cache size at fixed heads.
	e := New(model.OPT30B)
	const mb = int64(1) << 20
	base := e.AttnDecodeTime(hardware.A100, 1000, 512*mb)
	dblHeads := e.AttnDecodeTime(hardware.A100, 2000, 512*mb)
	dblCache := e.AttnDecodeTime(hardware.A100, 1000, 1024*mb)
	if dblHeads <= base || dblCache <= base {
		t.Fatalf("attention time must increase with heads and cache: %g %g %g", base, dblHeads, dblCache)
	}
	// Marginal cost of heads should be near-constant (linearity): compare
	// slope on [1000,2000] vs [2000,3000].
	s1 := dblHeads - base
	s2 := e.AttnDecodeTime(hardware.A100, 3000, 512*mb) - dblHeads
	if math.Abs(s2-s1)/s1 > 0.25 {
		t.Errorf("head slope not near-linear: %g vs %g", s1, s2)
	}
}

func TestAttnDecodeBatchInvariance(t *testing.T) {
	// Fig. 7(a): with total heads and cache fixed, the number of requests
	// they are split across must not matter. Our ground truth only sees
	// (heads, bytes), so this is exact.
	e := New(model.OPT30B)
	// decode prices n requests of the given heads each at 1000 tokens of
	// context, decoded together on one device in one layer.
	decode := func(n, heads int) float64 {
		var bytes int64
		for i := 0; i < n; i++ {
			bytes += e.CacheBytesPerLayer(heads, 1000)
		}
		return e.AttnDecodeTime(hardware.A100, n*heads, bytes)
	}
	a, b := decode(1, 560), decode(10, 56)
	if math.Abs(a-b)/a > 1e-9 {
		t.Errorf("attention time should depend only on totals: %g vs %g", a, b)
	}
}

func TestAttnGapSmallerThanDenseGap(t *testing.T) {
	// §2.3/Fig. 2: the A100-P100 performance gap is far larger for MLP
	// (dense) than for Attention. This asymmetry is what Hetis exploits.
	e := New(model.Llama70B)
	tokens := 400
	denseA := e.DenseLayerTime(hardware.A100, tokens, 1)
	denseP := e.DenseLayerTime(hardware.P100, tokens, 1)
	heads := tokens * model.Llama70B.Heads
	cache := e.CacheBytesPerLayer(model.Llama70B.Heads, 1000) * int64(tokens)
	attnA := e.AttnDecodeTime(hardware.A100, heads, cache)
	attnP := e.AttnDecodeTime(hardware.P100, heads, cache)

	denseGap := denseP / denseA
	attnGap := attnP / attnA
	t.Logf("dense gap %.1fx, attention gap %.1fx", denseGap, attnGap)
	if denseGap < 10 {
		t.Errorf("dense gap %.1fx too small; paper reports up to 40x", denseGap)
	}
	if attnGap > 6 {
		t.Errorf("attention gap %.1fx too large; paper reports <5x", attnGap)
	}
	if denseGap < 3*attnGap {
		t.Errorf("dense gap (%.1fx) should far exceed attention gap (%.1fx)", denseGap, attnGap)
	}
}

func TestCacheBytesPerLayerGQA(t *testing.T) {
	e := New(model.Llama70B) // r=8
	// 8 heads = 1 group; 9 heads = 2 groups.
	b8 := e.CacheBytesPerLayer(8, 100)
	b9 := e.CacheBytesPerLayer(9, 100)
	b16 := e.CacheBytesPerLayer(16, 100)
	if b9 != b16 {
		t.Errorf("9 heads should round up to 2 groups: %d vs %d", b9, b16)
	}
	if b16 != 2*b8 {
		t.Errorf("16 heads should cost twice 8 heads: %d vs %d", b16, b8)
	}
}

func TestCollectives(t *testing.T) {
	link := hardware.LAN100G
	if got := AllReduceTime(link, 1<<20, 1); got != 0 {
		t.Errorf("allreduce with 1 participant costs 0, got %g", got)
	}
	t2 := AllReduceTime(link, 1<<20, 2)
	t4 := AllReduceTime(link, 1<<20, 4)
	if t2 <= 0 || t4 <= 0 {
		t.Fatal("allreduce must cost > 0 for p > 1")
	}
	// Ring all-reduce asymptotically moves 2 bytes per byte of payload
	// regardless of p; with alpha terms t4 > t2 slightly.
	if t4 < t2 {
		t.Errorf("allreduce with more participants cannot be cheaper: %g vs %g", t4, t2)
	}
}

func TestHeadScatterBytes(t *testing.T) {
	// MHA (r=1): (2 + 2)·headDim·2B per head.
	e := New(model.OPT30B)
	hd := int64(model.OPT30B.HeadDim())
	want := 4 * hd * 2
	if got := e.HeadScatterBytes(1); got != want {
		t.Errorf("MHA scatter bytes per head = %d want %d", got, want)
	}
	// GQA (r=8): (2 + 0.25)·headDim·2B per head.
	g := New(model.Llama70B)
	hd = int64(model.Llama70B.HeadDim())
	want = int64(2.25 * float64(hd) * 2)
	if got := g.HeadScatterBytes(1); got != want {
		t.Errorf("GQA scatter bytes per head = %d want %d", got, want)
	}
}

func TestHeadWiseBeatsSeqWiseTraffic(t *testing.T) {
	// The core of Fig. 5: offloading 20% of heads moves far less data than
	// sequence-splitting, which ships the full q vector and result.
	e := New(model.Llama70B)
	offloaded := model.Llama70B.Heads / 5
	headWise := e.HeadScatterBytes(offloaded)
	seqWise := e.SeqScatterBytes()
	ratio := float64(seqWise) / float64(headWise)
	t.Logf("seq-wise/head-wise traffic ratio at 20%% offload: %.2fx", ratio)
	if ratio < 2 {
		t.Errorf("head-wise should cut traffic by >2x at 20%% offload, got %.2fx", ratio)
	}
}

func TestPrefillStepTime(t *testing.T) {
	e := New(model.Llama13B)
	if got := e.PrefillStepTime(hardware.A100, nil, 40, 1); got != 0 {
		t.Errorf("empty prefill should cost 0, got %g", got)
	}
	short := e.PrefillStepTime(hardware.A100, []int{128}, 40, 1)
	long := e.PrefillStepTime(hardware.A100, []int{2048}, 40, 1)
	if long <= short {
		t.Errorf("longer prompt must cost more: %g vs %g", short, long)
	}
}

func TestPropertyMonotoneInTokens(t *testing.T) {
	e := New(model.OPT27B)
	f := func(a, b uint16) bool {
		x, y := int(a)%4096+1, int(b)%4096+1
		if x > y {
			x, y = y, x
		}
		return e.DenseLayerTime(hardware.RTX3090, x, 1) <= e.DenseLayerTime(hardware.RTX3090, y, 1)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAttnMonotone(t *testing.T) {
	e := New(model.Llama70B)
	f := func(h1, h2 uint16, g1, g2 uint32) bool {
		ha, hb := int(h1)%5000+1, int(h2)%5000+1
		ga, gb := int64(g1)%(1<<30)+1, int64(g2)%(1<<30)+1
		if ha > hb {
			ha, hb = hb, ha
		}
		if ga > gb {
			ga, gb = gb, ga
		}
		return e.AttnDecodeTime(hardware.P100, ha, ga) <= e.AttnDecodeTime(hardware.P100, hb, gb)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnInvalidModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid model config")
		}
	}()
	bad := model.OPT27B
	bad.Layers = 0
	New(bad)
}
