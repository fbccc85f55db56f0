package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestMMPPBurstiness(t *testing.T) {
	// A strongly bimodal MMPP must be overdispersed relative to Poisson:
	// the variance of per-second arrival counts well above the mean.
	states := []MMPPState{{Rate: 20, MeanDwell: 4}, {Rate: 1, MeanDwell: 8}}
	rng := rand.New(rand.NewSource(3))
	times := MMPPTimes(states, 600, rng)
	if len(times) == 0 {
		t.Fatal("no arrivals")
	}
	counts := make([]float64, 600)
	for _, at := range times {
		counts[int(at)]++
	}
	var mean, varr float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	for _, c := range counts {
		varr += (c - mean) * (c - mean)
	}
	varr /= float64(len(counts))
	if varr < 2*mean {
		t.Errorf("MMPP index of dispersion %.2f, want >= 2 (variance %.2f, mean %.2f)", varr/mean, varr, mean)
	}
	// Long-run rate near the dwell-weighted mean (20*4+1*8)/12 ≈ 7.3.
	rate := float64(len(times)) / 600
	if rate < 4 || rate > 11 {
		t.Errorf("MMPP empirical rate %.2f far from dwell-weighted mean 7.3", rate)
	}
}

func TestDiurnalFollowsSinusoid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const base, amp, period = 10.0, 0.9, 200.0
	times := DiurnalTimes(base, amp, period, period, rng)
	// First half-period (sin >= 0) must clearly out-arrive the second.
	firstHalf := 0
	for _, at := range times {
		if at < period/2 {
			firstHalf++
		}
	}
	secondHalf := len(times) - firstHalf
	if firstHalf <= secondHalf*2 {
		t.Errorf("diurnal peak half has %d arrivals vs %d in the trough half; want > 2x", firstHalf, secondHalf)
	}
	// Overall rate stays near base (the sinusoid integrates to zero).
	rate := float64(len(times)) / period
	if math.Abs(rate-base)/base > 0.15 {
		t.Errorf("diurnal mean rate %.2f deviates >15%% from base %g", rate, base)
	}
}

func TestFlashCrowdSpike(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const base, spikeAt, spikeDur, factor, dur = 2.0, 100.0, 20.0, 8.0, 300.0
	times := FlashCrowdTimes(base, spikeAt, spikeDur, factor, dur, rng)
	in, out := 0, 0
	for _, at := range times {
		if at >= spikeAt && at < spikeAt+spikeDur {
			in++
		} else {
			out++
		}
	}
	inRate := float64(in) / spikeDur
	outRate := float64(out) / (dur - spikeDur)
	if inRate < 4*outRate {
		t.Errorf("spike rate %.2f vs baseline %.2f; want >= 4x", inRate, outRate)
	}
}

func TestClosedLoopScalesWithUsers(t *testing.T) {
	rate := func(users int) float64 {
		rng := rand.New(rand.NewSource(11))
		return float64(len(ClosedLoopTimes(users, 5, 400, rng))) / 400
	}
	r16, r64 := rate(16), rate(64)
	// Offered rate ≈ users/think and grows with the population.
	if math.Abs(r16-16.0/5)/(16.0/5) > 0.2 {
		t.Errorf("closed-loop rate %.2f for 16 users, want ≈ %.2f", r16, 16.0/5)
	}
	if r64 < 3*r16 {
		t.Errorf("64 users rate %.2f not ≈ 4x the 16-user rate %.2f", r64, r16)
	}
}

func TestAssembleMixesTenants(t *testing.T) {
	times := make([]float64, 6000)
	for i := range times {
		times[i] = float64(i) * 0.01
	}
	mix := []MixEntry{
		{Tenant: "chat", Dataset: ShareGPT, Weight: 3},
		{Tenant: "code", Dataset: HumanEval, Weight: 1},
		{Tenant: "off", Dataset: LongBench, Weight: 0}, // ignored
	}
	reqs := Assemble(times, mix, 1)
	if len(reqs) != len(times) {
		t.Fatalf("Assemble dropped requests: %d of %d", len(reqs), len(times))
	}
	counts := map[string]int{}
	for i, r := range reqs {
		counts[r.Tenant]++
		if r.ID != int64(i) {
			t.Fatalf("IDs not sequential at %d", i)
		}
		if i > 0 && r.ArrivalAt < reqs[i-1].ArrivalAt {
			t.Fatal("arrivals not sorted")
		}
	}
	if counts["off"] != 0 {
		t.Errorf("zero-weight tenant received %d requests", counts["off"])
	}
	share := float64(counts["chat"]) / float64(len(reqs))
	if share < 0.65 || share > 0.85 {
		t.Errorf("chat share %.2f, want ≈ 0.75", share)
	}
	// Per-tenant length character: code prompts must be shorter on average.
	var chatSum, codeSum, chatN, codeN float64
	for _, r := range reqs {
		if r.Tenant == "chat" {
			chatSum += float64(r.PromptLen)
			chatN++
		} else {
			codeSum += float64(r.PromptLen)
			codeN++
		}
	}
	if chatSum/chatN < codeSum/codeN {
		t.Errorf("ShareGPT tenant mean prompt %.0f not above HumanEval tenant's %.0f", chatSum/chatN, codeSum/codeN)
	}
}

func TestAssembleDefaultsToShareGPT(t *testing.T) {
	reqs := Assemble([]float64{0, 1, 2}, nil, 1)
	if len(reqs) != 3 {
		t.Fatalf("got %d requests", len(reqs))
	}
	for _, r := range reqs {
		if r.Tenant != "" {
			t.Errorf("default mix should be tenantless, got %q", r.Tenant)
		}
	}
}

func TestValidateMix(t *testing.T) {
	if err := ValidateMix(nil); err != nil {
		t.Errorf("empty mix should validate: %v", err)
	}
	if err := ValidateMix([]MixEntry{{Tenant: "a", Dataset: ShareGPT, Weight: 1}}); err != nil {
		t.Errorf("good mix should validate: %v", err)
	}
	if err := ValidateMix([]MixEntry{{Tenant: "a", Weight: 1}}); err == nil {
		t.Error("positive-weight entry without dataset should fail")
	}
	if err := ValidateMix([]MixEntry{{Tenant: "a", Dataset: ShareGPT, Weight: 0}}); err == nil {
		t.Error("all-zero-weight mix should fail")
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mix := []MixEntry{{Tenant: "a", Dataset: ShareGPT, Weight: 1}, {Tenant: "b", Dataset: HumanEval, Weight: w}}
		err := ValidateMix(mix)
		if err == nil || !strings.Contains(err.Error(), `mix entry 1 ("b") Weight is`) {
			t.Errorf("weight %g: ValidateMix = %v, want an error naming entry 1 and tenant b", w, err)
		}
	}
}

func TestPoissonTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	times := PoissonTimes(10, 200, rng)
	rate := float64(len(times)) / 200
	if math.Abs(rate-10)/10 > 0.1 {
		t.Errorf("empirical rate %.2f deviates >10%% from 10", rate)
	}
	for i, at := range times {
		if at < 0 || at >= 200 {
			t.Fatalf("time %g out of range", at)
		}
		if i > 0 && at < times[i-1] {
			t.Fatal("times not sorted")
		}
	}
}

func TestDegenerateParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := PoissonTimes(0, 10, rng); got != nil {
		t.Errorf("PoissonTimes(rate=0) = %v, want nil", got)
	}
	if got := PoissonTimes(5, 0, rng); got != nil {
		t.Errorf("PoissonTimes(duration=0) = %v, want nil", got)
	}
	if got := MMPPTimes(nil, 10, rng); got != nil {
		t.Errorf("MMPPTimes(no states) = %v, want nil", got)
	}
	if got := MMPPTimes([]MMPPState{{Rate: 5, MeanDwell: 0}}, 10, rng); got != nil {
		t.Errorf("MMPPTimes(zero dwell) = %v, want nil (state skipped forever is unreachable; zero-dwell states are skipped)", got)
	}
	if got := DiurnalTimes(0, 0.5, 10, 10, rng); got != nil {
		t.Errorf("DiurnalTimes(base=0) = %v, want nil", got)
	}
	if got := DiurnalTimes(5, 0.5, 0, 10, rng); got != nil {
		t.Errorf("DiurnalTimes(period=0) = %v, want nil", got)
	}
	if got := FlashCrowdTimes(0, 1, 1, 2, 10, rng); got != nil {
		t.Errorf("FlashCrowdTimes(base=0) = %v, want nil", got)
	}
	if got := ClosedLoopTimes(0, 5, 10, rng); got != nil {
		t.Errorf("ClosedLoopTimes(users=0) = %v, want nil", got)
	}
	if got := ClosedLoopTimes(4, 0, 10, rng); got != nil {
		t.Errorf("ClosedLoopTimes(think=0) = %v, want nil", got)
	}
	// Amplitude and factor are clamped, not rejected.
	if got := DiurnalTimes(5, 7, 10, 10, rng); len(got) == 0 {
		t.Error("DiurnalTimes with amplitude > 1 should clamp and generate")
	}
	if got := DiurnalTimes(5, -1, 10, 10, rng); len(got) == 0 {
		t.Error("DiurnalTimes with negative amplitude should clamp and generate")
	}
	if got := FlashCrowdTimes(5, 2, 2, -3, 10, rng); len(got) == 0 {
		t.Error("FlashCrowdTimes with negative factor should clamp the spike to silence, not fail")
	}
}

// TestNonFiniteParametersGiveEmptyTraces pins that every generator returns
// an empty trace for a NaN or infinite rate, duration or shape parameter,
// as it does for a non-positive one. An infinite rate adds
// ExpFloat64()/Inf = 0 to the clock, so without the guard the generator
// would append without bound.
func TestNonFiniteParametersGiveEmptyTraces(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	cases := []struct {
		name string
		gen  func() int
	}{
		{"PoissonTimes rate=+Inf", func() int { return len(PoissonTimes(inf, 10, rng())) }},
		{"PoissonTimes rate=NaN", func() int { return len(PoissonTimes(nan, 10, rng())) }},
		{"PoissonTimes duration=+Inf", func() int { return len(PoissonTimes(5, inf, rng())) }},
		{"PoissonTimes duration=NaN", func() int { return len(PoissonTimes(5, nan, rng())) }},
		{"Poisson rate=+Inf", func() int { return len(Poisson(ShareGPT, inf, 10, 1)) }},
		{"Poisson duration=+Inf", func() int { return len(Poisson(ShareGPT, 5, inf, 1)) }},
		{"MMPPTimes rate=+Inf", func() int {
			return len(MMPPTimes([]MMPPState{{Rate: 5, MeanDwell: 1}, {Rate: inf, MeanDwell: 1}}, 10, rng()))
		}},
		{"MMPPTimes rate=NaN", func() int {
			return len(MMPPTimes([]MMPPState{{Rate: 5, MeanDwell: 1}, {Rate: nan, MeanDwell: 1}}, 10, rng()))
		}},
		{"MMPPTimes dwell=+Inf", func() int { return len(MMPPTimes([]MMPPState{{Rate: 5, MeanDwell: inf}}, 10, rng())) }},
		{"MMPPTimes duration=+Inf", func() int { return len(MMPPTimes([]MMPPState{{Rate: 5, MeanDwell: 1}}, inf, rng())) }},
		{"DiurnalTimes base=+Inf", func() int { return len(DiurnalTimes(inf, 0.5, 10, 10, rng())) }},
		{"DiurnalTimes amplitude=NaN", func() int { return len(DiurnalTimes(5, nan, 10, 10, rng())) }},
		{"DiurnalTimes period=NaN", func() int { return len(DiurnalTimes(5, 0.5, nan, 10, rng())) }},
		{"DiurnalTimes duration=+Inf", func() int { return len(DiurnalTimes(5, 0.5, 10, inf, rng())) }},
		{"FlashCrowdTimes base=+Inf", func() int { return len(FlashCrowdTimes(inf, 1, 1, 2, 10, rng())) }},
		{"FlashCrowdTimes factor=+Inf", func() int { return len(FlashCrowdTimes(5, 1, 1, inf, 10, rng())) }},
		{"FlashCrowdTimes factor=NaN", func() int { return len(FlashCrowdTimes(5, 1, 1, nan, 10, rng())) }},
		{"FlashCrowdTimes duration=+Inf", func() int { return len(FlashCrowdTimes(5, 1, 1, 2, inf, rng())) }},
		{"ClosedLoopTimes think=NaN", func() int { return len(ClosedLoopTimes(4, nan, 10, rng())) }},
		{"ClosedLoopTimes duration=+Inf", func() int { return len(ClosedLoopTimes(4, 5, inf, rng())) }},
		{"PiecewiseRate rate=+Inf", func() int {
			return len(PiecewiseRate(ShareGPT, []RateSegment{{Rate: 5, Duration: 1}, {Rate: inf, Duration: 1}}, 1))
		}},
		{"PiecewiseRate duration=+Inf", func() int {
			return len(PiecewiseRate(ShareGPT, []RateSegment{{Rate: 5, Duration: inf}}, 1))
		}},
	}
	for _, c := range cases {
		if n := c.gen(); n != 0 {
			t.Errorf("%s: %d arrivals, want none", c.name, n)
		}
	}
}
