// Package workload generates synthetic serving traces that stand in for the
// paper's three datasets. The real datasets cannot ship with an offline
// stdlib-only build, so each generator reproduces the published length
// statistics instead:
//
//   - ShareGPT (chatbot): medium prompts with a heavy tail, long answers.
//   - HumanEval (code completion): short prompts, short completions.
//   - LongBench (summarization): very long documents, short summaries.
//
// The scheduler under test is sensitive to the length distributions and the
// arrival process only, both of which these generators control, so the
// substitution preserves the behaviour the experiments measure. All
// sampling is seeded and deterministic.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Request is one inference request in a trace.
type Request struct {
	ID        int64
	ArrivalAt float64 // seconds since trace start
	PromptLen int     // tokens in the prompt
	OutputLen int     // tokens to generate (decode steps)
	// Tenant names the traffic class the request belongs to in a
	// multi-tenant mix (empty for single-tenant traces). Engines carry it
	// through to the metrics records so SLO attainment can be broken down
	// per tenant.
	Tenant string
}

// TotalLen is the request's final context length.
func (r Request) TotalLen() int { return r.PromptLen + r.OutputLen }

// LengthDist is a two-sided token-length distribution: log-normal prompt
// and output lengths with floors and caps.
type LengthDist struct {
	Name string

	PromptMedian float64 // median prompt tokens
	PromptSigma  float64 // log-normal shape
	PromptMin    int
	PromptMax    int

	OutputMedian float64
	OutputSigma  float64
	OutputMin    int
	OutputMax    int
}

// Sample draws one (prompt, output) pair.
func (d LengthDist) Sample(rng *rand.Rand) (prompt, output int) {
	prompt = clampInt(logNormal(rng, d.PromptMedian, d.PromptSigma), d.PromptMin, d.PromptMax)
	output = clampInt(logNormal(rng, d.OutputMedian, d.OutputSigma), d.OutputMin, d.OutputMax)
	return prompt, output
}

func logNormal(rng *rand.Rand, median, sigma float64) int {
	return int(math.Round(median * math.Exp(sigma*rng.NormFloat64())))
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Dataset presets. Statistics follow the commonly published profiles of the
// three corpora (the package comment says why synthetic traces stand in
// for them).
var (
	// ShareGPT models multi-turn chat: prompt median ~330 tokens with a
	// heavy tail, outputs median ~240 tokens.
	ShareGPT = LengthDist{
		Name:         "ShareGPT",
		PromptMedian: 330, PromptSigma: 0.9, PromptMin: 16, PromptMax: 4096,
		OutputMedian: 240, OutputSigma: 0.7, OutputMin: 8, OutputMax: 1024,
	}
	// HumanEval models code completion: short docstring prompts, short
	// function-body completions.
	HumanEval = LengthDist{
		Name:         "HumanEval",
		PromptMedian: 130, PromptSigma: 0.5, PromptMin: 32, PromptMax: 512,
		OutputMedian: 70, OutputSigma: 0.5, OutputMin: 8, OutputMax: 256,
	}
	// LongBench models long-article summarization: long documents
	// truncated to the serving context window (the paper's runs see
	// ~0.9-1.2k average context per request, Fig. 7), compact summaries.
	LongBench = LengthDist{
		Name:         "LongBench",
		PromptMedian: 1800, PromptSigma: 0.45, PromptMin: 512, PromptMax: 4096,
		OutputMedian: 220, OutputSigma: 0.5, OutputMin: 32, OutputMax: 512,
	}
)

// ByName resolves a dataset preset.
func ByName(name string) (LengthDist, error) {
	for _, d := range []LengthDist{ShareGPT, HumanEval, LongBench} {
		if strings.EqualFold(d.Name, name) {
			return d, nil
		}
	}
	switch name {
	case "SG", "sg":
		return ShareGPT, nil
	case "HE", "he":
		return HumanEval, nil
	case "LB", "lb":
		return LongBench, nil
	}
	return LengthDist{}, fmt.Errorf("workload: unknown dataset %q", name)
}

// Poisson generates a trace with exponential inter-arrival times at `rate`
// requests/second for `duration` seconds; it is empty unless both are
// positive and finite.
func Poisson(dist LengthDist, rate, duration float64, seed int64) []Request {
	if !positive(rate) || !positive(duration) {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var reqs []Request
	t := rng.ExpFloat64() / rate
	id := int64(0)
	for t < duration {
		p, o := dist.Sample(rng)
		reqs = append(reqs, Request{ID: id, ArrivalAt: t, PromptLen: p, OutputLen: o})
		id++
		t += rng.ExpFloat64() / rate
	}
	return reqs
}

// RateSegment is one phase of a piecewise-constant arrival process.
type RateSegment struct {
	Rate     float64 // requests/second (0 = silence)
	Duration float64 // seconds
}

// PiecewiseRate generates a trace whose arrival rate steps through the
// segments, reproducing time-varying loads like Fig. 14's
// rps 5 → 0 → 2.5 → 0 pattern. A segment with a NaN or infinite rate or
// duration makes the whole trace empty.
func PiecewiseRate(dist LengthDist, segments []RateSegment, seed int64) []Request {
	for _, seg := range segments {
		if !finite(seg.Rate) || !finite(seg.Duration) {
			return nil
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var reqs []Request
	id := int64(0)
	base := 0.0
	for _, seg := range segments {
		if seg.Duration <= 0 {
			continue
		}
		if seg.Rate > 0 {
			t := rng.ExpFloat64() / seg.Rate
			for t < seg.Duration {
				p, o := dist.Sample(rng)
				reqs = append(reqs, Request{ID: id, ArrivalAt: base + t, PromptLen: p, OutputLen: o})
				id++
				t += rng.ExpFloat64() / seg.Rate
			}
		}
		base += seg.Duration
	}
	return reqs
}

// Stats summarizes a trace.
type Stats struct {
	Count                      int
	MeanPrompt, MeanOutput     float64
	MedianPrompt, MedianOutput int
	MaxPrompt, MaxOutput       int
	TotalTokens                int64
}

// Summarize computes trace statistics.
func Summarize(reqs []Request) Stats {
	var s Stats
	s.Count = len(reqs)
	if s.Count == 0 {
		return s
	}
	prompts := make([]int, 0, len(reqs))
	outputs := make([]int, 0, len(reqs))
	for _, r := range reqs {
		prompts = append(prompts, r.PromptLen)
		outputs = append(outputs, r.OutputLen)
		s.MeanPrompt += float64(r.PromptLen)
		s.MeanOutput += float64(r.OutputLen)
		s.TotalTokens += int64(r.PromptLen) + int64(r.OutputLen)
		if r.PromptLen > s.MaxPrompt {
			s.MaxPrompt = r.PromptLen
		}
		if r.OutputLen > s.MaxOutput {
			s.MaxOutput = r.OutputLen
		}
	}
	s.MeanPrompt /= float64(s.Count)
	s.MeanOutput /= float64(s.Count)
	sort.Ints(prompts)
	sort.Ints(outputs)
	s.MedianPrompt = prompts[len(prompts)/2]
	s.MedianOutput = outputs[len(outputs)/2]
	return s
}

// Clamp fits one request to a model context window: a prompt longer than
// maxSeq-1 is cut, and the output is cut so prompt+output ≤ maxSeq, keeping
// at least one output token. maxSeq <= 0 returns r unchanged.
func Clamp(r Request, maxSeq int) Request {
	if maxSeq <= 0 {
		return r
	}
	if r.PromptLen > maxSeq-1 {
		r.PromptLen = maxSeq - 1
	}
	if r.PromptLen+r.OutputLen > maxSeq {
		r.OutputLen = maxSeq - r.PromptLen
	}
	if r.OutputLen < 1 {
		r.OutputLen = 1
	}
	return r
}
