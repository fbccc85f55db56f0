package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"ShareGPT", "sharegpt", "SG", "HumanEval", "HE", "LongBench", "lb"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("wikitext"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestSampleRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []LengthDist{ShareGPT, HumanEval, LongBench} {
		for i := 0; i < 5000; i++ {
			p, o := d.Sample(rng)
			if p < d.PromptMin || p > d.PromptMax {
				t.Fatalf("%s: prompt %d outside [%d,%d]", d.Name, p, d.PromptMin, d.PromptMax)
			}
			if o < d.OutputMin || o > d.OutputMax {
				t.Fatalf("%s: output %d outside [%d,%d]", d.Name, o, d.OutputMin, d.OutputMax)
			}
		}
	}
}

func TestDatasetCharacter(t *testing.T) {
	// The three datasets must keep their published relative character:
	// LongBench prompts >> ShareGPT prompts >> HumanEval prompts, and
	// ShareGPT outputs the longest.
	reqs := func(d LengthDist) Stats { return Summarize(sample(d, 4000, 7)) }
	sg, he, lb := reqs(ShareGPT), reqs(HumanEval), reqs(LongBench)

	if !(lb.MeanPrompt > 3*sg.MeanPrompt) {
		t.Errorf("LongBench prompts (%.0f) should dwarf ShareGPT's (%.0f)", lb.MeanPrompt, sg.MeanPrompt)
	}
	if !(sg.MeanPrompt > 1.5*he.MeanPrompt) {
		t.Errorf("ShareGPT prompts (%.0f) should exceed HumanEval's (%.0f)", sg.MeanPrompt, he.MeanPrompt)
	}
	if !(sg.MeanOutput > he.MeanOutput) {
		t.Errorf("ShareGPT outputs (%.0f) should exceed HumanEval's (%.0f)", sg.MeanOutput, he.MeanOutput)
	}
	// LongBench average context matches the paper's served range (~1-3k
	// after truncation to the context window).
	if lb.MeanPrompt < 1200 || lb.MeanPrompt > 3500 {
		t.Errorf("LongBench mean prompt %.0f outside [1200,3500]", lb.MeanPrompt)
	}
}

func TestPoissonRate(t *testing.T) {
	reqs := Poisson(ShareGPT, 10, 300, 42)
	got := float64(len(reqs)) / 300
	if math.Abs(got-10)/10 > 0.1 {
		t.Errorf("empirical rate %.2f deviates >10%% from 10", got)
	}
	// Arrivals sorted and within [0, duration).
	for i, r := range reqs {
		if r.ArrivalAt < 0 || r.ArrivalAt >= 300 {
			t.Fatalf("arrival %g out of range", r.ArrivalAt)
		}
		if i > 0 && reqs[i].ArrivalAt < reqs[i-1].ArrivalAt {
			t.Fatal("arrivals not sorted")
		}
		if r.ID != int64(i) {
			t.Fatalf("IDs not sequential: %d at %d", r.ID, i)
		}
	}
}

func TestPoissonDeterminism(t *testing.T) {
	a := Poisson(HumanEval, 5, 100, 9)
	b := Poisson(HumanEval, 5, 100, 9)
	if len(a) != len(b) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c := Poisson(HumanEval, 5, 100, 10)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	if r := Poisson(ShareGPT, 0, 100, 1); r != nil {
		t.Error("zero rate should produce nil")
	}
	if r := Poisson(ShareGPT, 5, 0, 1); r != nil {
		t.Error("zero duration should produce nil")
	}
}

func TestPiecewiseRate(t *testing.T) {
	segs := []RateSegment{
		{Rate: 5, Duration: 25},
		{Rate: 0, Duration: 25},
		{Rate: 2.5, Duration: 25},
		{Rate: 0, Duration: 25},
	}
	reqs := PiecewiseRate(ShareGPT, segs, 3)
	// No arrivals during silent windows.
	for _, r := range reqs {
		in1 := r.ArrivalAt < 25
		in3 := r.ArrivalAt >= 50 && r.ArrivalAt < 75
		if !in1 && !in3 {
			t.Fatalf("arrival %.2f falls in a silent window", r.ArrivalAt)
		}
	}
	// Roughly 5*25=125 arrivals in phase 1 and 2.5*25=62 in phase 3.
	var n1, n3 int
	for _, r := range reqs {
		if r.ArrivalAt < 25 {
			n1++
		} else {
			n3++
		}
	}
	if math.Abs(float64(n1)-125) > 40 || math.Abs(float64(n3)-62.5) > 30 {
		t.Errorf("phase counts %d/%d far from expectation 125/62", n1, n3)
	}
}

// sample draws n (prompt, output) pairs from d.
func sample(d LengthDist, n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i].PromptLen, reqs[i].OutputLen = d.Sample(rng)
	}
	return reqs
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.TotalTokens != 0 {
		t.Fatalf("empty summary should be zero: %+v", s)
	}
}

func TestSummarize(t *testing.T) {
	reqs := []Request{
		{PromptLen: 10, OutputLen: 2},
		{PromptLen: 30, OutputLen: 6},
		{PromptLen: 20, OutputLen: 4},
	}
	s := Summarize(reqs)
	if s.MeanPrompt != 20 || s.MeanOutput != 4 {
		t.Fatalf("means wrong: %+v", s)
	}
	if s.MedianPrompt != 20 || s.MaxPrompt != 30 || s.MaxOutput != 6 {
		t.Fatalf("order stats wrong: %+v", s)
	}
	if s.TotalTokens != 72 {
		t.Fatalf("TotalTokens=%d want 72", s.TotalTokens)
	}
}

func TestPropertyMedianNearConfigured(t *testing.T) {
	// Sampled medians should track the configured medians (log-normal has
	// median = the median parameter, modulo clamping).
	f := func(seed int64) bool {
		reqs := sample(ShareGPT, 2000, seed)
		s := Summarize(reqs)
		return math.Abs(float64(s.MedianPrompt)-ShareGPT.PromptMedian)/ShareGPT.PromptMedian < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalLen(t *testing.T) {
	r := Request{PromptLen: 100, OutputLen: 20}
	if r.TotalLen() != 120 {
		t.Fatalf("TotalLen=%d want 120", r.TotalLen())
	}
}

func TestClamp(t *testing.T) {
	cases := []struct {
		name   string
		in     Request
		maxSeq int
		want   Request
	}{
		{"fits", Request{PromptLen: 100, OutputLen: 50}, 2048, Request{PromptLen: 100, OutputLen: 50}},
		{"exactly fills", Request{PromptLen: 2000, OutputLen: 48}, 2048, Request{PromptLen: 2000, OutputLen: 48}},
		{"long prompt", Request{PromptLen: 5000, OutputLen: 500}, 2048, Request{PromptLen: 2047, OutputLen: 1}},
		{"overflowing output", Request{PromptLen: 2000, OutputLen: 100}, 2048, Request{PromptLen: 2000, OutputLen: 48}},
		{"prompt at the window", Request{PromptLen: 2048, OutputLen: 10}, 2048, Request{PromptLen: 2047, OutputLen: 1}},
		{"zero output raised", Request{PromptLen: 10, OutputLen: 0}, 2048, Request{PromptLen: 10, OutputLen: 1}},
		{"other fields kept", Request{ID: 7, ArrivalAt: 1.5, PromptLen: 9000, OutputLen: 9, Tenant: "t"}, 4096,
			Request{ID: 7, ArrivalAt: 1.5, PromptLen: 4095, OutputLen: 1, Tenant: "t"}},
		{"maxSeq 0 passes through", Request{PromptLen: 5000, OutputLen: 500}, 0, Request{PromptLen: 5000, OutputLen: 500}},
		{"negative maxSeq passes through", Request{PromptLen: 5000, OutputLen: 0}, -1, Request{PromptLen: 5000, OutputLen: 0}},
		{"maxSeq 1", Request{PromptLen: 5000, OutputLen: 500}, 1, Request{PromptLen: 0, OutputLen: 1}},
		{"maxSeq 1 empty prompt", Request{PromptLen: 0, OutputLen: 3}, 1, Request{PromptLen: 0, OutputLen: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Clamp(c.in, c.maxSeq)
			if got != c.want {
				t.Fatalf("Clamp(%+v, %d) = %+v, want %+v", c.in, c.maxSeq, got, c.want)
			}
			if c.maxSeq > 0 && got.TotalLen() > c.maxSeq {
				t.Fatalf("clamped request exceeds the window: %+v", got)
			}
		})
	}
}

func TestByNameCaseInsensitive(t *testing.T) {
	// ByName folds case via strings.EqualFold: every casing of a preset
	// name resolves to the same dataset.
	cases := map[string]string{
		"sharegpt": "ShareGPT", "SHAREGPT": "ShareGPT", "ShArEgPt": "ShareGPT",
		"humaneval": "HumanEval", "HUMANEVAL": "HumanEval",
		"longbench": "LongBench", "LoNgBeNcH": "LongBench",
	}
	for in, want := range cases {
		d, err := ByName(in)
		if err != nil {
			t.Errorf("ByName(%q): %v", in, err)
			continue
		}
		if d.Name != want {
			t.Errorf("ByName(%q) = %s, want %s", in, d.Name, want)
		}
	}
	if _, err := ByName("sharegpt2"); err == nil {
		t.Error("near-miss name should not resolve")
	}
}
