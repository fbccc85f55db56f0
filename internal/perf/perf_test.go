package perf

import (
	"math"
	"testing"
	"testing/quick"

	"hetis/internal/hardware"
	"hetis/internal/model"
)

func TestDenseLayerTimeBasics(t *testing.T) {
	e := newEst(t, model.OPT27B)
	d := e.Compile(hardware.A100, 1)
	if got := d.DenseLayerTime(0); got != 0 {
		t.Errorf("zero tokens should cost 0, got %g", got)
	}
	t1 := d.DenseLayerTime(100)
	t2 := d.DenseLayerTime(200)
	if t2 <= t1 {
		t.Errorf("dense time should grow with tokens: %g vs %g", t1, t2)
	}
	// TP divides the work; with saturation and fixed overheads the speedup
	// is sublinear but must be a speedup.
	d2 := e.Compile(hardware.A100, 2)
	tp2 := d2.DenseLayerTime(4096)
	full := d.DenseLayerTime(4096)
	if tp2 >= full {
		t.Errorf("tp=2 should be faster at large batch: %g vs %g", tp2, full)
	}
	if tp2 < full/2.5 {
		t.Errorf("tp=2 speedup unrealistically superlinear: %g vs %g", tp2, full)
	}
}

func TestDecodeIsWeightBandwidthBound(t *testing.T) {
	// At decode batch sizes, dense module time on an A100 should track the
	// weight-read time, not the FLOP time.
	e := newEst(t, model.OPT27B)
	cfg := model.OPT27B
	d := e.Compile(hardware.A100, 1)
	got := d.DenseLayerTime(8)
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
	d := newEst(t, model.OPT30B).Compile(hardware.A100, 1)
	const mb = int64(1) << 20
	base := d.AttnDecodeTime(1000, 512*mb)
	dblHeads := d.AttnDecodeTime(2000, 512*mb)
	dblCache := d.AttnDecodeTime(1000, 1024*mb)
	if dblHeads <= base || dblCache <= base {
		t.Fatalf("attention time must increase with heads and cache: %g %g %g", base, dblHeads, dblCache)
	}
	// Marginal cost of heads should be near-constant (linearity): compare
	// slope on [1000,2000] vs [2000,3000].
	s1 := dblHeads - base
	s2 := d.AttnDecodeTime(3000, 512*mb) - dblHeads
	if math.Abs(s2-s1)/s1 > 0.25 {
		t.Errorf("head slope not near-linear: %g vs %g", s1, s2)
	}
}

func TestAttnDecodeBatchInvariance(t *testing.T) {
	// Fig. 7(a): with total heads and cache fixed, the number of requests
	// they are split across must not matter. Our ground truth only sees
	// (heads, bytes), so this is exact.
	e := newEst(t, model.OPT30B)
	a100 := e.Compile(hardware.A100, 1)
	// decode prices n requests of the given heads each at 1000 tokens of
	// context, decoded together on one device in one layer.
	decode := func(n, heads int) float64 {
		var bytes int64
		for i := 0; i < n; i++ {
			bytes += e.CacheBytesPerLayer(heads, 1000)
		}
		return a100.AttnDecodeTime(n*heads, bytes)
	}
	a, b := decode(1, 560), decode(10, 56)
	if math.Abs(a-b)/a > 1e-9 {
		t.Errorf("attention time should depend only on totals: %g vs %g", a, b)
	}
}

func TestAttnGapSmallerThanDenseGap(t *testing.T) {
	// §2.3/Fig. 2: the A100-P100 performance gap is far larger for MLP
	// (dense) than for Attention. This asymmetry is what Hetis exploits.
	e := newEst(t, model.Llama70B)
	tokens := 400
	a100, p100 := e.Compile(hardware.A100, 1), e.Compile(hardware.P100, 1)
	denseA := a100.DenseLayerTime(tokens)
	denseP := p100.DenseLayerTime(tokens)
	heads := tokens * model.Llama70B.Heads
	cache := e.CacheBytesPerLayer(model.Llama70B.Heads, 1000) * int64(tokens)
	attnA := a100.AttnDecodeTime(heads, cache)
	attnP := p100.AttnDecodeTime(heads, cache)

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
	e := newEst(t, model.Llama70B) // r=8
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
	e := newEst(t, model.OPT30B)
	hd := int64(model.OPT30B.HeadDim())
	want := 4 * hd * 2
	if got := e.HeadScatterBytes(1); got != want {
		t.Errorf("MHA scatter bytes per head = %d want %d", got, want)
	}
	// GQA (r=8): (2 + 0.25)·headDim·2B per head.
	g := newEst(t, model.Llama70B)
	hd = int64(model.Llama70B.HeadDim())
	want = int64(2.25 * float64(hd) * 2)
	if got := g.HeadScatterBytes(1); got != want {
		t.Errorf("GQA scatter bytes per head = %d want %d", got, want)
	}
}

func TestHeadWiseBeatsSeqWiseTraffic(t *testing.T) {
	// The core of Fig. 5: offloading 20% of heads moves far less data than
	// sequence-splitting, which ships the full q vector and result.
	e := newEst(t, model.Llama70B)
	offloaded := model.Llama70B.Heads / 5
	headWise := e.HeadScatterBytes(offloaded)
	seqWise := e.SeqScatterBytes()
	ratio := float64(seqWise) / float64(headWise)
	t.Logf("seq-wise/head-wise traffic ratio at 20%% offload: %.2fx", ratio)
	if ratio < 2 {
		t.Errorf("head-wise should cut traffic by >2x at 20%% offload, got %.2fx", ratio)
	}
}

func TestPrefillCostGrowsWithPrompt(t *testing.T) {
	d := newEst(t, model.Llama13B).Compile(hardware.A100, 1)
	if got := d.AttnPrefillLayerTime(nil); got != 0 {
		t.Errorf("empty prefill attention should cost 0, got %g", got)
	}
	// prefill is one prompt's dense, attention and LM-head time over 40
	// layers, priced the way the engines price a prefill step.
	prefill := func(l int) float64 {
		return 40*d.DenseLayerTime(l) + 40*d.AttnPrefillLayerTime([]int{l}) + d.LMHeadTime(1)
	}
	if short, long := prefill(128), prefill(2048); long <= short {
		t.Errorf("longer prompt must cost more: %g vs %g", short, long)
	}
}

func TestPropertyMonotoneInTokens(t *testing.T) {
	d := newEst(t, model.OPT27B).Compile(hardware.RTX3090, 1)
	f := func(a, b uint16) bool {
		x, y := int(a)%4096+1, int(b)%4096+1
		if x > y {
			x, y = y, x
		}
		return d.DenseLayerTime(x) <= d.DenseLayerTime(y)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAttnMonotone(t *testing.T) {
	d := newEst(t, model.Llama70B).Compile(hardware.P100, 1)
	f := func(h1, h2 uint16, g1, g2 uint32) bool {
		ha, hb := int(h1)%5000+1, int(h2)%5000+1
		ga, gb := int64(g1)%(1<<30)+1, int64(g2)%(1<<30)+1
		if ha > hb {
			ha, hb = hb, ha
		}
		if ga > gb {
			ga, gb = gb, ga
		}
		return d.AttnDecodeTime(ha, ga) <= d.AttnDecodeTime(hb, gb)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsInvalidModel(t *testing.T) {
	bad := model.OPT27B
	bad.Layers = 0
	if e, err := New(bad); err == nil || e != nil {
		t.Fatalf("New(invalid) = %v, %v; want nil and an error", e, err)
	}
}

// newEst is New for a model configuration the test knows is valid.
func newEst(tb testing.TB, cfg model.Config) *Estimator {
	tb.Helper()
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}
