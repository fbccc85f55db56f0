package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, m := range presets {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// TestPresetsPerHeadBytesIntegral pins the property that makes the
// dispatcher's integer cache loads equal the float ones the Eq. 7 LP was
// first posed with: one query head's share of a KV head group's per-token
// bytes, KVBytesPerTokenHeadGroup / GroupRatio, is a whole number of bytes
// for every preset, so heads × that share × tokens is an exact integer.
func TestPresetsPerHeadBytesIntegral(t *testing.T) {
	for _, m := range presets {
		if b, r := m.KVBytesPerTokenHeadGroup(), int64(m.GroupRatio()); b%r != 0 {
			t.Errorf("%s: %d KV bytes per token and head group do not divide by r = %d", m.Name, b, r)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	base := OPT27B
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero layers", func(c *Config) { c.Layers = 0 }},
		{"zero hidden", func(c *Config) { c.Hidden = 0 }},
		{"zero heads", func(c *Config) { c.Heads = 0 }},
		{"kv not dividing", func(c *Config) { c.KVHeads = 7 }},
		{"heads not dividing hidden", func(c *Config) { c.Heads = 33 }},
		{"zero ffn", func(c *Config) { c.FFN = 0 }},
		{"zero dtype", func(c *Config) { c.BytesPerParam = 0 }},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", tc.name)
		}
	}
}

func TestParamCountsRoughlyMatchNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want float64 // billions
		tol  float64 // relative tolerance
	}{
		{OPT27B, 2.7, 0.15},
		{OPT13B, 13, 0.15},
		{OPT30B, 30, 0.15},
		{Llama13B, 13, 0.15},
		{Llama70B, 70, 0.15},
	}
	for _, tc := range cases {
		got := float64(tc.cfg.Params()) / 1e9
		if math.Abs(got-tc.want)/tc.want > tc.tol {
			t.Errorf("%s: %.2fB params, want ~%gB", tc.cfg.Name, got, tc.want)
		}
	}
}

func TestGQA(t *testing.T) {
	if Llama70B.GroupRatio() != 8 {
		t.Errorf("Llama-70B group ratio = %d want 8", Llama70B.GroupRatio())
	}
	if !Llama70B.IsGQA() {
		t.Error("Llama-70B should be GQA")
	}
	if OPT30B.IsGQA() {
		t.Error("OPT-30B should be MHA")
	}
	if OPT30B.GroupRatio() != 1 {
		t.Errorf("OPT-30B group ratio = %d want 1", OPT30B.GroupRatio())
	}
}

func TestKVBytesPerToken(t *testing.T) {
	// Llama-2-13B-style MHA model: paper §1 says decoding a 10k-token
	// sequence needs >8 GB. Llama13B: 40 layers * 2 * 40*128 * 2B =
	// 819200 B/token; 10k tokens = 8.19 GB.
	perTok := Llama13B.KVBytesPerToken()
	total := perTok * 10000
	if total < 8e9 || total > 9e9 {
		t.Errorf("Llama-13B 10k-token KV = %.2f GB, want just above 8 GB", float64(total)/1e9)
	}
	// GQA shrinks cache by the group ratio relative to a hypothetical MHA
	// twin.
	mhaTwin := Llama70B
	mhaTwin.KVHeads = mhaTwin.Heads
	if got, want := Llama70B.KVBytesPerToken()*8, mhaTwin.KVBytesPerToken(); got != want {
		t.Errorf("GQA cache ratio: %d*8 != %d", Llama70B.KVBytesPerToken(), want)
	}
}

func TestWeightBytesFP16(t *testing.T) {
	// FP16 OPT-2.7B should be ~5.3-6 GB (2 bytes/param).
	gb := float64(OPT27B.WeightBytes()) / 1e9
	if gb < 5 || gb > 7 {
		t.Errorf("OPT-2.7B FP16 weights = %.2f GB, want ~5.5-6.5", gb)
	}
}

func TestFlopsAccounting(t *testing.T) {
	c := OPT27B
	// QKV for MHA: 2·H·H for Q plus 2·(2·H·H) for K and V = 6·H·H.
	wantQKV := 6 * float64(c.Hidden) * float64(c.Hidden)
	if got := c.QKVFlopsPerToken(); got != wantQKV {
		t.Errorf("QKVFlopsPerToken=%g want %g", got, wantQKV)
	}
	// MLP without GLU: 4·H·F.
	wantMLP := 4 * float64(c.Hidden) * float64(c.FFN)
	if got := c.MLPFlopsPerToken(); got != wantMLP {
		t.Errorf("MLPFlopsPerToken=%g want %g", got, wantMLP)
	}
	// GLU model gets 1.5x the MLP flops.
	g := Llama13B
	wantGLU := 6 * float64(g.Hidden) * float64(g.FFN)
	if got := g.MLPFlopsPerToken(); got != wantGLU {
		t.Errorf("GLU MLPFlopsPerToken=%g want %g", got, wantGLU)
	}
	// Dense = QKV + OutProj + MLP.
	if got := c.DenseFlopsPerToken(); got != c.QKVFlopsPerToken()+c.OutProjFlopsPerToken()+c.MLPFlopsPerToken() {
		t.Errorf("DenseFlopsPerToken inconsistent: %g", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"opt-2.7b", "OPT-30B", "llama-70b", "Llama-13B", "opt-13b"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("gpt-5"); err == nil {
		t.Error("ByName(gpt-5) should fail")
	}
}

func TestHiddenStateBytes(t *testing.T) {
	c := OPT27B
	if got, want := c.HiddenStateBytes(10), int64(10*2560*2); got != want {
		t.Errorf("HiddenStateBytes(10)=%d want %d", got, want)
	}
}

func TestPropertyKVMonotoneInLayers(t *testing.T) {
	f := func(l1, l2 uint8) bool {
		a, b := int(l1)%64+1, int(l2)%64+1
		if a > b {
			a, b = b, a
		}
		ca, cb := OPT27B, OPT27B
		ca.Layers, cb.Layers = a, b
		return ca.KVBytesPerToken() <= cb.KVBytesPerToken()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringDescriptions(t *testing.T) {
	s := Llama70B.String()
	if s == "" {
		t.Fatal("empty description")
	}
	for _, sub := range []string{"Llama-70B", "GQA"} {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("description %q missing %q", s, sub)
		}
	}
}
