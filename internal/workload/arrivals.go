// Arrival processes beyond steady Poisson: bursty (MMPP), diurnal,
// flash-crowd, and closed-loop traffic, plus multi-tenant workload mixing.
// Each process yields ascending arrival times; Synthesize (one array) and
// SynthesizeChunks (chunk by chunk) turn them into Requests by sampling a
// weighted tenant mix, drawn concurrently with the arrival process.
// Everything is seeded and deterministic: the same (parameters, seed)
// always yield the same trace.

package workload

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
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

// PresizeShares is the starting capacity of each of len(shares)
// sub-traces that split a trace of about expected requests in proportion
// to shares (non-negative weights): presize of each one's share of
// expected, or 0 for all of them if the shares do not have a positive,
// finite sum. expected is first capped at maxPresize, so the sub-traces
// together reserve at most maxPresize requests plus each share's slack,
// whatever the estimate.
func PresizeShares(expected float64, shares []float64) []int {
	var total float64
	for _, w := range shares {
		total += w
	}
	expected = min(expected, maxPresize)
	caps := make([]int, len(shares))
	for i, w := range shares {
		caps[i] = presize(expected * w / total)
	}
	return caps
}

// PoissonArrivals yields homogeneous Poisson arrival times at `rate`
// requests/second over [0, duration).
func PoissonArrivals(rate, duration float64, rng *rand.Rand) iter.Seq[float64] {
	return func(yield func(float64) bool) {
		if !positive(rate) || !positive(duration) {
			return
		}
		for t := rng.ExpFloat64() / rate; t < duration; t += rng.ExpFloat64() / rate {
			if !yield(t) {
				return
			}
		}
	}
}

// PoissonTimes collects PoissonArrivals.
func PoissonTimes(rate, duration float64, rng *rand.Rand) []float64 {
	return collect(PoissonArrivals(rate, duration, rng), rate*duration)
}

// MMPPState is one phase of a cyclic Markov-modulated Poisson process:
// arrivals come at Rate while the process dwells in the state for an
// exponentially distributed time with mean MeanDwell seconds.
type MMPPState struct {
	Rate      float64 // requests/second while in this state
	MeanDwell float64 // mean sojourn time, seconds
}

// MMPPArrivals yields the arrival times of a cyclic MMPP over
// [0, duration): the process cycles through the states in order, staying
// Exp(MeanDwell) in each. With two states (high/low rate) this is the
// classic interrupted-Poisson bursty source. A state with a NaN or
// infinite rate or dwell gives no arrivals.
func MMPPArrivals(states []MMPPState, duration float64, rng *rand.Rand) iter.Seq[float64] {
	return func(yield func(float64) bool) {
		if len(states) == 0 || !positive(duration) {
			return
		}
		// Zero-dwell states are skipped, so at least one must be
		// inhabitable or the cycle would never advance time.
		inhabitable := false
		for _, st := range states {
			if !finite(st.Rate) || !finite(st.MeanDwell) {
				return
			}
			inhabitable = inhabitable || st.MeanDwell > 0
		}
		if !inhabitable {
			return
		}
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
				for t := now + rng.ExpFloat64()/st.Rate; t < end; t += rng.ExpFloat64() / st.Rate {
					if !yield(t) {
						return
					}
				}
			}
			now = end
		}
	}
}

// MMPPTimes collects MMPPArrivals.
func MMPPTimes(states []MMPPState, duration float64, rng *rand.Rand) []float64 {
	return collect(MMPPArrivals(states, duration, rng), 0)
}

// DiurnalArrivals yields an inhomogeneous Poisson process with sinusoidal
// rate λ(t) = base·(1 + amplitude·sin(2πt/period)) via thinning.
// amplitude is clamped to [0, 1] so the rate never goes negative; period
// is the full day-night cycle in simulated seconds.
func DiurnalArrivals(base, amplitude, period, duration float64, rng *rand.Rand) iter.Seq[float64] {
	if !positive(base) || !positive(period) || !positive(duration) {
		return none
	}
	amplitude = min(max(amplitude, 0), 1)
	rate := func(t float64) float64 {
		return base * (1 + amplitude*math.Sin(2*math.Pi*t/period))
	}
	return thinned(rate, base*(1+amplitude), duration, rng)
}

// DiurnalTimes collects DiurnalArrivals.
func DiurnalTimes(base, amplitude, period, duration float64, rng *rand.Rand) []float64 {
	return collect(DiurnalArrivals(base, amplitude, period, duration, rng), base*duration)
}

// FlashCrowdArrivals yields Poisson arrivals at base req/s with a sudden
// spike: during [spikeAt, spikeAt+spikeDur) the rate jumps to base·factor
// (a breaking-news or retry-storm surge), then returns to base.
func FlashCrowdArrivals(base, spikeAt, spikeDur, factor, duration float64, rng *rand.Rand) iter.Seq[float64] {
	if !positive(base) || !positive(duration) {
		return none
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
	return thinned(rate, base*math.Max(1, factor), duration, rng)
}

// FlashCrowdTimes collects FlashCrowdArrivals.
func FlashCrowdTimes(base, spikeAt, spikeDur, factor, duration float64, rng *rand.Rand) []float64 {
	return collect(FlashCrowdArrivals(base, spikeAt, spikeDur, factor, duration, rng), base*(duration+spikeDur*(factor-1)))
}

// thinned yields an inhomogeneous Poisson process with instantaneous rate
// rate(t) ≤ maxRate by Lewis-Shedler thinning. A NaN or infinite maxRate
// (a NaN amplitude or spike factor, an infinite factor) gives no arrivals.
func thinned(rate func(float64) float64, maxRate, duration float64, rng *rand.Rand) iter.Seq[float64] {
	if !positive(maxRate) {
		return none
	}
	return func(yield func(float64) bool) {
		for t := rng.ExpFloat64() / maxRate; t < duration; t += rng.ExpFloat64() / maxRate {
			if rng.Float64()*maxRate <= rate(t) && !yield(t) {
				return
			}
		}
	}
}

// ClosedLoopArrivals models a closed-loop population: `users` concurrent
// sessions, each issuing its next request an Exp(think)-distributed pause
// after the previous one (the request-response-think cycle of a replayed
// session log, with service time folded into the think time). The
// sessions are drawn one after another, so the merged stream is sorted
// before the first arrival is yielded.
func ClosedLoopArrivals(users int, think, duration float64, rng *rand.Rand) iter.Seq[float64] {
	if users <= 0 || !positive(think) || !positive(duration) {
		return none
	}
	return func(yield func(float64) bool) {
		times := make([]float64, 0, presize(float64(users)/think*duration))
		for u := 0; u < users; u++ {
			for t := rng.ExpFloat64() * think; t < duration; t += rng.ExpFloat64() * think {
				times = append(times, t)
			}
		}
		sort.Float64s(times)
		for _, t := range times {
			if !yield(t) {
				return
			}
		}
	}
}

// ClosedLoopTimes collects ClosedLoopArrivals.
func ClosedLoopTimes(users int, think, duration float64, rng *rand.Rand) []float64 {
	return collect(ClosedLoopArrivals(users, think, duration, rng), float64(users)/think*duration)
}

// none is the process with no arrivals.
func none(func(float64) bool) {}

// collect gathers a process's arrival times into a slice pre-sized for
// about mean of them, or returns nil when there are none.
func collect(arrivals iter.Seq[float64], mean float64) []float64 {
	var times []float64
	for t := range arrivals {
		if times == nil {
			times = make([]float64, 0, max(presize(mean), 1))
		}
		times = append(times, t)
	}
	return times
}

// MixEntry is one tenant of a multi-tenant workload mix: a share of the
// arrival stream drawing lengths from the tenant's dataset.
type MixEntry struct {
	Tenant  string
	Dataset LengthDist
	Weight  float64 // relative share of arrivals; entries with Weight <= 0 are ignored
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

// drawChunk is the request count of one chunk of draws, and drawAhead
// how many chunks SynthesizeChunks keeps in circulation: the draws run
// ahead of the caller by at most drawAhead·drawChunk requests (a sixth of
// a MiB per chunk). Synthesize draws drawChunk requests between looks at
// whether the arrival count is known yet.
const (
	drawChunk = 4096
	drawAhead = 4
)

// SynthesizeChunks turns the arrival times arrivals yields into a trace,
// chunk by chunk, by sampling the weighted tenant mix per arrival from a
// stream seeded by seed: tenant first, then (prompt, output) from that
// tenant's dataset. An empty (or fully zero-weight) mix defaults to
// single-tenant ShareGPT. Arrivals must come in ascending order; request
// i gets ID i and the i-th arrival time.
//
// Two goroutines share the work: the mix draws run on one of their own,
// while the caller's goroutine runs arrivals, stamps each time into its
// drawn request and hands each finished chunk to swap. swap owns
// the chunk buffers. SynthesizeChunks first calls swap(nil) drawAhead
// times for empty buffers; the draws fill them in turn, and each
// finished chunk goes back through swap, which returns the buffer for a
// later chunk — the same one, to recycle it, or an empty one for a fresh
// drawChunk-request buffer. The last chunk may be shorter than its
// buffer, and the buffer swap returns for it is not used.
//
// The arrivals and the draws come from streams of their own, and request
// i takes the mix stream's i-th draws however far either goroutine ran,
// so the trace does not depend on scheduling or GOMAXPROCS, and synthesis
// costs about the slower half instead of the sum of both. A panic in
// arrivals or swap reaches the caller after the draw goroutine has
// exited.
func SynthesizeChunks(arrivals iter.Seq[float64], mix []MixEntry, seed int64, swap func(filled []Request) []Request) {
	next := func(filled []Request) []Request {
		if c := swap(filled); len(c) > 0 {
			return c
		}
		return make([]Request, drawChunk)
	}
	free := make(chan []Request, drawAhead)
	full := make(chan []Request, drawAhead)
	for range drawAhead {
		free <- next(nil)
	}
	d := newMixDrawer(mix, rand.New(rand.NewSource(seed)))
	go func() {
		defer close(full)
		id := int64(0)
		for c := range free {
			for i := range c {
				c[i] = Request{ID: id}
				d.draw(&c[i])
				id++
			}
			full <- c
		}
	}()
	defer func() {
		// Take back the buffers the draws have not reached, then wait for
		// the goroutine to finish the one it is on and exit: no draw
		// outlives the call or writes into a buffer swap has handed on.
		for drained := false; !drained; {
			select {
			case <-free:
			default:
				drained = true
			}
		}
		close(free)
		for range full {
		}
	}()
	var c []Request
	k := 0
	for t := range arrivals {
		if k == len(c) {
			if c != nil {
				free <- next(c)
			}
			c, k = <-full, 0
		}
		c[k].ArrivalAt = t
		k++
	}
	if k > 0 {
		swap(c[:k])
	}
}

// Synthesize turns the arrival times arrivals yields into a trace, as
// SynthesizeChunks does, in one array pre-sized by presize(expected), an
// estimate of the arrival count. The mix is drawn on a second goroutine
// straight into that array while the caller collects the arrival times,
// so the array's allocation overlaps the arrival process; the times are
// stamped in once both are done. Until the arrival count is known the
// draws run at most to the estimate and then wait, which bounds the
// memory a bad estimate can cost and the work thrown away when it is
// high. The spare capacity stays live as long as the trace does.
func Synthesize(arrivals iter.Seq[float64], expected float64, mix []MixEntry, seed int64) []Request {
	count := make(chan int, 1)
	drawn := make(chan []Request, 1)
	d := newMixDrawer(mix, rand.New(rand.NewSource(seed)))
	go func() { drawn <- d.drawUpTo(max(presize(expected), drawChunk), count) }()
	var times []float64
	func() {
		// Closing count on the way out, panics included, lets the draw
		// goroutine finish rather than wait forever.
		defer close(count)
		times = collect(arrivals, expected)
		count <- len(times)
	}()
	reqs := <-drawn
	for i, t := range times {
		reqs[i].ArrivalAt = t
	}
	return reqs
}

// drawUpTo draws requests (IDs and mix draws, no arrival times) until it
// learns the trace length n from count, then returns exactly n. Before
// that it draws in chunks of drawChunk up to limit, polling count between
// chunks, and blocks only at limit.
func (d *mixDrawer) drawUpTo(limit int, count <-chan int) []Request {
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
	next(n)
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
