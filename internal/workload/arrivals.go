// Arrival processes beyond steady Poisson: bursty (MMPP), diurnal,
// flash-crowd, and closed-loop traffic, plus multi-tenant workload mixing.
// Each process generates sorted arrival times; Synthesize turns times into
// Requests by sampling a weighted tenant mix, drawn concurrently with the
// arrival process. Everything is seeded and deterministic: the same
// (parameters, seed) always yield the same trace.

package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// maxPresize caps the capacity a generator reserves from its rate
// estimate, so a malformed rate cannot allocate unbounded memory up front;
// a longer trace grows by append past it.
const maxPresize = 1 << 21

// positive reports whether v is a positive finite number: the only rates
// and durations a generator can finish with. An infinite rate never
// advances time and an infinite duration never ends, so generators return
// an empty trace for them, as for a non-positive or NaN value.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// presize is the starting capacity for a process expected to produce
// about mean arrivals: the mean plus four Poisson standard deviations, so
// the slice rarely regrows, capped at maxPresize.
func presize(mean float64) int {
	if !(mean > 0) {
		return 0
	}
	n := mean + 4*math.Sqrt(mean) + 16
	if n >= maxPresize {
		return maxPresize
	}
	return int(n)
}

// PoissonTimes generates homogeneous Poisson arrival times at `rate`
// requests/second over [0, duration).
func PoissonTimes(rate, duration float64, rng *rand.Rand) []float64 {
	if !positive(rate) || !positive(duration) {
		return nil
	}
	times := make([]float64, 0, presize(rate*duration))
	t := rng.ExpFloat64() / rate
	for t < duration {
		times = append(times, t)
		t += rng.ExpFloat64() / rate
	}
	return times
}

// MMPPState is one phase of a cyclic Markov-modulated Poisson process:
// arrivals come at Rate while the process dwells in the state for an
// exponentially distributed time with mean MeanDwell seconds.
type MMPPState struct {
	Rate      float64 // requests/second while in this state
	MeanDwell float64 // mean sojourn time, seconds
}

// MMPPTimes generates arrival times of a cyclic MMPP over [0, duration):
// the process cycles through the states in order, staying Exp(MeanDwell)
// in each. With two states (high/low rate) this is the classic
// interrupted-Poisson bursty source. A state with a NaN or infinite rate
// or dwell gives an empty trace.
func MMPPTimes(states []MMPPState, duration float64, rng *rand.Rand) []float64 {
	if len(states) == 0 || !positive(duration) {
		return nil
	}
	// Zero-dwell states are skipped, so at least one must be inhabitable
	// or the cycle would never advance time.
	var work, dwell float64
	for _, st := range states {
		if !finite(st.Rate) || !finite(st.MeanDwell) {
			return nil
		}
		if st.MeanDwell > 0 {
			work += st.Rate * st.MeanDwell
			dwell += st.MeanDwell
		}
	}
	if dwell == 0 {
		return nil
	}
	times := make([]float64, 0, presize(work/dwell*duration))
	now := 0.0
	for i := 0; now < duration; i = (i + 1) % len(states) {
		st := states[i]
		dwell := st.MeanDwell
		if dwell <= 0 {
			continue
		}
		end := now + rng.ExpFloat64()*dwell
		if end > duration {
			end = duration
		}
		if st.Rate > 0 {
			t := now + rng.ExpFloat64()/st.Rate
			for t < end {
				times = append(times, t)
				t += rng.ExpFloat64() / st.Rate
			}
		}
		now = end
	}
	return times
}

// DiurnalTimes generates an inhomogeneous Poisson process with sinusoidal
// rate λ(t) = base·(1 + amplitude·sin(2πt/period)) via thinning.
// amplitude is clamped to [0, 1] so the rate never goes negative; period
// is the full day-night cycle in simulated seconds.
func DiurnalTimes(base, amplitude, period, duration float64, rng *rand.Rand) []float64 {
	if !positive(base) || !positive(period) || !positive(duration) {
		return nil
	}
	if amplitude < 0 {
		amplitude = 0
	}
	if amplitude > 1 {
		amplitude = 1
	}
	rate := func(t float64) float64 {
		return base * (1 + amplitude*math.Sin(2*math.Pi*t/period))
	}
	return thinned(rate, base*(1+amplitude), base*duration, duration, rng)
}

// FlashCrowdTimes generates Poisson arrivals at base req/s with a sudden
// spike: during [spikeAt, spikeAt+spikeDur) the rate jumps to base·factor
// (a breaking-news or retry-storm surge), then returns to base.
func FlashCrowdTimes(base, spikeAt, spikeDur, factor, duration float64, rng *rand.Rand) []float64 {
	if !positive(base) || !positive(duration) {
		return nil
	}
	if factor < 0 {
		factor = 0
	}
	rate := func(t float64) float64 {
		if t >= spikeAt && t < spikeAt+spikeDur {
			return base * factor
		}
		return base
	}
	return thinned(rate, base*math.Max(1, factor), base*(duration+spikeDur*(factor-1)), duration, rng)
}

// thinned samples an inhomogeneous Poisson process with instantaneous rate
// rate(t) ≤ maxRate by Lewis-Shedler thinning; mean estimates the arrival
// count. A NaN or infinite maxRate (a NaN amplitude or spike factor, an
// infinite factor) gives an empty trace.
func thinned(rate func(float64) float64, maxRate, mean, duration float64, rng *rand.Rand) []float64 {
	if !positive(maxRate) {
		return nil
	}
	times := make([]float64, 0, presize(mean))
	t := 0.0
	for {
		t += rng.ExpFloat64() / maxRate
		if t >= duration {
			return times
		}
		if rng.Float64()*maxRate <= rate(t) {
			times = append(times, t)
		}
	}
}

// ClosedLoopTimes models a closed-loop population: `users` concurrent
// sessions, each issuing its next request an Exp(think)-distributed pause
// after the previous one (the request-response-think cycle of a replayed
// session log, with service time folded into the think time). The merged
// stream is sorted ascending.
func ClosedLoopTimes(users int, think, duration float64, rng *rand.Rand) []float64 {
	if users <= 0 || !positive(think) || !positive(duration) {
		return nil
	}
	times := make([]float64, 0, presize(float64(users)/think*duration))
	for u := 0; u < users; u++ {
		t := rng.ExpFloat64() * think
		for t < duration {
			times = append(times, t)
			t += rng.ExpFloat64() * think
		}
	}
	sort.Float64s(times)
	return times
}

// MixEntry is one tenant of a multi-tenant workload mix: a share of the
// arrival stream drawing lengths from the tenant's dataset.
type MixEntry struct {
	Tenant  string
	Dataset LengthDist
	Weight  float64 // relative share of arrivals; entries with Weight <= 0 are ignored
}

// ascending returns times in ascending order: times itself when it already
// is (every generator's output), else a sorted copy. Sorting an already
// sorted slice moves nothing, so both paths give the same order.
func ascending(times []float64) []float64 {
	if sort.Float64sAreSorted(times) {
		return times
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	return sorted
}

// mixDrawer samples the per-request half of a trace from one stream: a
// tenant pick, then (prompt, output) from the tenant's dataset. The draws
// do not depend on arrival times, only on the request's position.
type mixDrawer struct {
	mix   []MixEntry // the positive-weight entries, in mix order
	total float64
	rng   *rand.Rand
}

func newMixDrawer(mix []MixEntry, rng *rand.Rand) mixDrawer {
	d := mixDrawer{rng: rng}
	for _, e := range mix {
		if e.Weight > 0 {
			d.mix = append(d.mix, e)
			d.total += e.Weight
		}
	}
	if d.total == 0 {
		d.mix = []MixEntry{{Dataset: ShareGPT, Weight: 1}}
		d.total = 1
	}
	return d
}

// draw fills r's tenant and lengths with the stream's next draws.
func (d *mixDrawer) draw(r *Request) {
	pick := d.rng.Float64() * d.total
	var e *MixEntry
	for i := range d.mix {
		e = &d.mix[i]
		if pick < e.Weight {
			break
		}
		pick -= e.Weight
	}
	r.PromptLen, r.OutputLen = e.Dataset.Sample(d.rng)
	r.Tenant = e.Tenant
}

// drawChunk is how many requests the mix goroutine of Synthesize draws
// between looks at whether the arrival count is known yet.
const drawChunk = 4096

// Synthesize turns the arrival times times() returns into a trace by
// sampling the weighted tenant mix per arrival, from a stream seeded by
// seed: tenant first, then (prompt, output) from that tenant's dataset. An
// empty (or fully zero-weight) mix defaults to single-tenant ShareGPT.
// Requests come out in ascending arrival order (times need not be sorted,
// and are never reordered in place), with IDs assigned in that order.
//
// The mix is drawn on a second goroutine while times runs on the
// caller's. The two share nothing: the arrivals come from whatever stream
// times owns, and the draws from the private stream. Request i takes that
// stream's i-th draws however far past the arrival count the goroutine
// ran, so the trace does not depend on scheduling or GOMAXPROCS, and
// synthesis costs about the slower half instead of the sum of both.
//
// expected estimates the arrival count. The draws go straight into the
// returned slice, pre-sized by presize(expected) (at least one chunk).
// Until times returns they run at most that far ahead and then wait, which
// bounds the memory a bad estimate can cost and the work thrown away when
// it is high. The spare capacity stays live as long as the trace does, so
// the limit adds no slack of its own.
func Synthesize(times func() []float64, expected float64, mix []MixEntry, seed int64) []Request {
	count := make(chan int, 1)
	drawn := make(chan []Request, 1)
	d := newMixDrawer(mix, rand.New(rand.NewSource(seed)))
	go func() { drawn <- d.drawAhead(max(presize(expected), drawChunk), count) }()
	var ts []float64
	func() {
		// Closing count on the way out, panics included, lets the draw
		// goroutine finish rather than wait forever.
		defer close(count)
		ts = ascending(times())
		count <- len(ts)
	}()
	reqs := <-drawn
	for i, t := range ts {
		reqs[i].ArrivalAt = t
	}
	return reqs
}

// drawAhead draws requests (IDs and mix draws, no arrival times) until it
// learns the trace length n from count, then returns exactly n. Before
// that it draws in chunks of drawChunk up to limit, polling count between
// chunks, and blocks only at limit.
func (d *mixDrawer) drawAhead(limit int, count <-chan int) []Request {
	reqs := make([]Request, 0, limit)
	next := func(end int) {
		for len(reqs) < end {
			reqs = append(reqs, Request{ID: int64(len(reqs))})
			d.draw(&reqs[len(reqs)-1])
		}
	}
	n := -1
	for n < 0 && len(reqs) < limit {
		select {
		case n = <-count:
		default:
			next(min(len(reqs)+drawChunk, limit))
		}
	}
	if n < 0 {
		n = <-count
	}
	if n > len(reqs) {
		reqs = slices.Grow(reqs, n-len(reqs))
		next(n)
	}
	return reqs[:n]
}

// ValidateMix reports whether the mix is usable: every weight finite, at
// least one positive-weight entry, every positive-weight entry with a
// named, non-empty dataset.
func ValidateMix(mix []MixEntry) error {
	any := false
	for i, e := range mix {
		// A NaN weight would be dropped silently and an infinite one
		// would send every pick past it.
		if !finite(e.Weight) {
			return fmt.Errorf("workload: mix entry %d (%q) Weight is %g; it must be finite", i, e.Tenant, e.Weight)
		}
		if e.Weight <= 0 {
			continue
		}
		any = true
		if e.Dataset.Name == "" {
			return fmt.Errorf("workload: mix entry %d (%q) has no dataset", i, e.Tenant)
		}
	}
	if len(mix) > 0 && !any {
		return fmt.Errorf("workload: mix has no positive-weight entry")
	}
	return nil
}
