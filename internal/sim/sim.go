// Package sim provides a minimal discrete-event simulation kernel used by
// the serving engines. Time is a float64 number of seconds since simulation
// start. Events wait in a binary min-heap and execute in timestamp order;
// ties are broken by insertion order so runs are fully deterministic.
package sim

import (
	"fmt"
	"math"
)

// Event is a callback scheduled to run at a particular virtual time.
//
// Events are pooled: once an event has fired (or been cancelled), its
// struct may be recycled for a later Schedule call. Handles carry the
// generation at which they were issued, so cancelling a handle whose
// event already ran — even if the struct now backs a newer event — is a
// safe no-op.
type Event struct {
	// At is the virtual time, in seconds, at which the event fires.
	At float64
	// Name is an optional label used in error messages and traces.
	Name string
	// Fn is the callback. It receives the owning simulator so it can
	// schedule follow-up events.
	Fn func(s *Simulator)

	seq uint64 // insertion order, for deterministic tie-breaking
	gen uint64 // bumped whenever the struct retires, invalidating handles
	pos int32  // index in the event queue, or -1 when not queued
}

// Handle identifies one scheduled occurrence of a (possibly recycled)
// Event for cancellation. The zero Handle is inert: Cancel returns
// false for it.
type Handle struct {
	ev  *Event
	gen uint64
}

// eventQueue is an indexed binary min-heap ordered by (At, seq). Sequence
// numbers are unique, so the order is total and any correct priority queue
// pops the same sequence; a heap is the simplest one, and the queue stays
// small because every run feeds its arrivals one at a time (the most
// events pending on any benchmark workload is a few dozen). Each queued
// event records its index in pos, which Cancel needs to unlink it.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	a, b := q[i], q[j]
	return a.At < b.At || (a.At == b.At && a.seq < b.seq)
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos = int32(i)
	q[j].pos = int32(j)
}

func (q eventQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

// down sifts element i toward the leaves and reports whether it moved.
func (q eventQueue) down(i int) bool {
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q.swap(i, c)
		i = c
	}
	return i > i0
}

func (q *eventQueue) insert(ev *Event) {
	ev.pos = int32(len(*q))
	*q = append(*q, ev)
	q.up(int(ev.pos))
}

// unlink removes a pending event: the last event takes its place and
// sifts to its own position. It leaves pos at -1, marking ev unqueued.
func (q *eventQueue) unlink(ev *Event) {
	h := *q
	i, last := int(ev.pos), len(h)-1
	h.swap(i, last)
	h[last] = nil
	*q = h[:last]
	if i < last && !q.down(i) {
		q.up(i)
	}
	ev.pos = -1
}

// min returns the pending event with the smallest (At, seq) without
// removing it, or nil when the queue is empty.
func (q eventQueue) min() *Event {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}

// Simulator owns the virtual clock and the pending event queue.
type Simulator struct {
	now     float64
	queue   eventQueue
	nextSeq uint64
	stopped bool

	// Executed counts events that have fired, useful as a progress and
	// runaway guard.
	Executed uint64
	// MaxEvents, when non-zero, aborts Run with an error after that many
	// events. It protects experiments from accidental infinite loops.
	MaxEvents uint64

	// free recycles retired (fired or cancelled) events; Schedule pops
	// from it before allocating. Generation counters keep stale handles
	// from aliasing recycled structs.
	free []*Event

	// err is the first scheduling error (a NaN time). It is sticky: the
	// run stops after the current event and Run returns it from then on.
	err error
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Schedule registers fn to run at absolute time at. Scheduling in the past
// (before Now) is clamped to Now; this makes "run immediately after current
// event" trivially safe. It returns the event so callers may cancel it. A
// NaN time schedules nothing: it becomes the error Run returns.
func (s *Simulator) Schedule(at float64, name string, fn func(s *Simulator)) Handle {
	s.nextSeq++
	return s.ScheduleSeq(s.nextSeq-1, at, name, fn)
}

// fail records a NaN schedule time for the named event as the simulator's
// sticky error, stops the run, and returns the inert zero Handle: the
// event is never queued.
func (s *Simulator) fail(name string) Handle {
	if s.err == nil {
		s.err = fmt.Errorf("sim: NaN schedule time for event %q", name)
	}
	s.stopped = true
	return Handle{}
}

// ReserveSeq pre-allocates n insertion-order slots and returns the first.
// Callers that know a batch of future events up front (the engines' lazy
// arrival feeders) use it to schedule those events later — interleaved
// with other work — while keeping the exact tie-break order an eager
// up-front scheduling loop would have produced. ScheduleSeq consumes the
// reserved numbers.
func (s *Simulator) ReserveSeq(n int) uint64 {
	first := s.nextSeq
	s.nextSeq += uint64(n)
	return first
}

// ScheduleSeq is Schedule with an explicit insertion-order number obtained
// from ReserveSeq. The timestamp rules are identical to Schedule's.
func (s *Simulator) ScheduleSeq(seq uint64, at float64, name string, fn func(s *Simulator)) Handle {
	if math.IsNaN(at) {
		return s.fail(name)
	}
	if at < s.now {
		at = s.now
	}
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
		*ev = Event{At: at, Name: name, Fn: fn, seq: seq, gen: ev.gen}
	} else {
		ev = &Event{At: at, Name: name, Fn: fn, seq: seq}
	}
	s.queue.insert(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run delay seconds after the current time.
func (s *Simulator) After(delay float64, name string, fn func(s *Simulator)) Handle {
	if delay < 0 {
		delay = 0
	}
	return s.Schedule(s.now+delay, name, fn)
}

// Cancel removes the handle's event from the queue if it is still
// pending. It returns false — safely, with no side effects — for the
// zero Handle, an already-cancelled handle, or a stale handle whose
// event has fired (the generation check makes aliasing a recycled
// struct impossible). Cancelled event structs are recycled like fired
// ones.
func (s *Simulator) Cancel(h Handle) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.pos < 0 {
		return false
	}
	s.queue.unlink(ev)
	ev.gen++ // retire: outstanding handles to this occurrence go stale
	ev.Fn = nil
	s.free = append(s.free, ev)
	return true
}

// Pending reports how many events remain in the queue.
func (s *Simulator) Pending() int { return len(s.queue) }

// Run executes events in time order until the queue drains, an event
// schedules at a NaN time (see fail), or the optional horizon (seconds;
// <=0 means unbounded) is passed. Events scheduled exactly at the horizon
// still run.
//
// With a positive horizon, Run always leaves the clock at the horizon when
// it returns without pending work: draining the queue early advances Now to
// the horizon instead of freezing it at the last event. Rates measured over
// the run (throughput, goodput) therefore divide by the window the caller
// asked for, so two systems serving the same trace share a denominator even
// when one finishes sooner.
func (s *Simulator) Run(horizon float64) error {
	if s.err != nil {
		return s.err
	}
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		ev := s.queue.min()
		if horizon > 0 && ev.At > horizon {
			// Peeked, not popped: the event stays queued for a later Run.
			s.now = horizon
			return nil
		}
		if ev.At < s.now {
			return fmt.Errorf("sim: time went backwards: event %q at %g < now %g", ev.Name, ev.At, s.now)
		}
		s.now = ev.At
		// Dispatch every event sharing this timestamp in one batch: the
		// horizon and monotonicity checks above hold for the whole batch,
		// so the inner loop skips them.
		at := ev.At
		for {
			s.queue.unlink(ev)
			s.Executed++
			if s.MaxEvents > 0 && s.Executed > s.MaxEvents {
				return fmt.Errorf("sim: exceeded MaxEvents=%d (runaway simulation?)", s.MaxEvents)
			}
			ev.Fn(s)
			ev.Fn = nil // drop the closure before pooling
			ev.gen++    // retire: handles to the fired occurrence go stale
			s.free = append(s.free, ev)
			if s.stopped || len(s.queue) == 0 {
				break
			}
			ev = s.queue.min()
			if ev.At != at {
				break
			}
		}
	}
	if s.err != nil {
		return s.err
	}
	if horizon > 0 && !s.stopped && len(s.queue) == 0 && s.now < horizon {
		s.now = horizon
	}
	return nil
}

// Alive reports whether the handle's event is still pending: scheduled and
// neither fired nor cancelled. The zero Handle and stale handles (whose
// event ran, possibly with the struct since recycled) are not alive.
func (s *Simulator) Alive(h Handle) bool {
	ev := h.ev
	return ev != nil && ev.gen == h.gen && ev.pos >= 0
}

// Group collects the handles of related scheduled events so they can be
// cancelled together — the primitive instance-failure handling is built on:
// a serving replica tracks its in-flight iteration events in a Group and a
// kill event aborts them all. The zero Group is ready to use.
//
// Handles of events that have already fired go stale on their own (see
// Handle), so tracking every event a component schedules is safe; Track
// prunes dead handles periodically, keeping the group's memory proportional
// to the live event count rather than the total ever scheduled.
type Group struct {
	handles []Handle
	// pruneAt is the adaptive prune threshold: twice the live count found
	// by the previous prune, floored at 64. A fixed threshold would make a
	// group holding more than that many live handles rescan the whole
	// slice on every Track — O(n²) across n Tracks.
	pruneAt int
	// prunes counts prune passes, for regression tests on the amortized
	// cost.
	prunes int
}

// Track registers a handle with the group. When the group has accumulated
// enough entries, dead handles (fired or cancelled) are pruned in place, so
// long-running components can track every event they schedule without the
// group growing with simulation length. The threshold doubles with the
// surviving live count, so each handle is rescanned O(1) times on average
// no matter how many stay live.
func (g *Group) Track(s *Simulator, h Handle) {
	g.handles = append(g.handles, h)
	if g.pruneAt < 64 {
		g.pruneAt = 64
	}
	if len(g.handles) < g.pruneAt {
		return
	}
	g.prunes++
	live := g.handles[:0]
	for _, old := range g.handles {
		if s.Alive(old) {
			live = append(live, old)
		}
	}
	for i := len(live); i < len(g.handles); i++ {
		g.handles[i] = Handle{}
	}
	g.handles = live
	g.pruneAt = 2 * len(live)
	if g.pruneAt < 64 {
		g.pruneAt = 64
	}
}

// Len reports the number of tracked handles (live and stale, between
// prunes).
func (g *Group) Len() int { return len(g.handles) }

// CancelAll cancels every still-pending tracked event and empties the
// group, returning how many events were actually cancelled. Stale handles
// are skipped safely, so CancelAll after events have fired is a no-op for
// them.
func (g *Group) CancelAll(s *Simulator) int {
	n := 0
	for _, h := range g.handles {
		if s.Cancel(h) {
			n++
		}
	}
	g.handles = g.handles[:0]
	g.pruneAt = 0
	return n
}
