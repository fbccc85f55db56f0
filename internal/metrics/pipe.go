// The pipelined sink: measurement overlapped with the run that produces
// it. A Pipe stands between an engine and a sink and moves the sink's work
// onto one consumer goroutine, so on a machine with an idle core the
// sketches fill while the event loop keeps running.

package metrics

// pipeChunk is how many records a Pipe hands its consumer at once: large
// enough that one channel operation amortizes over hundreds of records,
// small enough that the live chunks stay well under a megabyte.
const pipeChunk = 512

// Pipe is a Sink and BatchSink that copies every observed record into a
// fixed-size chunk and hands each full chunk to one consumer goroutine,
// which feeds the inner sink through ObserveAll. At most two chunks wait
// in the queue, so at most four are ever allocated: two queued, one being
// consumed and one open. A full queue blocks the producer.
//
// The inner sink sees exactly the records of the synchronous path in the
// same order, and only one goroutine touches it at a time: the consumer
// while records flow, the caller after Drain. Its state after Drain is
// therefore the synchronous path's, bit for bit.
//
// The consumer starts at the first full chunk, so a run of fewer records
// than one chunk never starts it, and exits at Drain; a later Observe
// starts it again. Observe, ObserveBatch, Drain and Snapshot must come
// from one goroutine at a time, like every Sink's; the inner sink must not
// be read until Drain returns.
type Pipe struct {
	inner   Sink
	open    []RequestRecord      // the chunk being filled
	work    chan []RequestRecord // full chunks for the consumer; nil stops it
	free    chan []RequestRecord // consumed chunks, returned for reuse
	done    chan struct{}        // signalled as the consumer exits
	running bool                 // the consumer goroutine is started and not yet drained
}

// NewPipe returns a Pipe feeding inner.
func NewPipe(inner Sink) *Pipe {
	return &Pipe{
		inner: inner,
		open:  make([]RequestRecord, 0, pipeChunk),
		// Two queued chunks let the producer fill a third while the
		// consumer switches chunks, and bound the run-ahead.
		work: make(chan []RequestRecord, 2),
		// Room for every chunk that can exist, so the consumer never
		// blocks returning one.
		free: make(chan []RequestRecord, 4),
		done: make(chan struct{}),
	}
}

// Observe implements Sink.
func (p *Pipe) Observe(r RequestRecord) {
	p.open = append(p.open, r)
	if len(p.open) == pipeChunk {
		p.handOff()
	}
}

// ObserveBatch implements BatchSink. The records are copied, so the caller
// may reuse recs as soon as the call returns.
func (p *Pipe) ObserveBatch(recs []RequestRecord) {
	for len(recs) > 0 {
		n := copy(p.open[len(p.open):pipeChunk], recs)
		p.open = p.open[:len(p.open)+n]
		recs = recs[n:]
		if len(p.open) == pipeChunk {
			p.handOff()
		}
	}
}

// handOff queues the full open chunk for the consumer, starting it if it
// is not running, and opens a recycled chunk (a new one only while fewer
// than four exist: every other chunk is queued or being consumed).
func (p *Pipe) handOff() {
	if !p.running {
		p.running = true
		go p.consume()
	}
	p.work <- p.open
	select {
	case c := <-p.free:
		p.open = c
	default:
		p.open = make([]RequestRecord, 0, pipeChunk)
	}
}

// consume feeds queued chunks to the inner sink until Drain's nil.
func (p *Pipe) consume() {
	for c := range p.work {
		if c == nil {
			break
		}
		ObserveAll(p.inner, c)
		p.free <- c[:0]
	}
	p.done <- struct{}{}
}

// Drain waits until the consumer has fed every queued chunk to the inner
// sink and exited, then feeds it the open chunk's records itself. After
// Drain the inner sink holds every record observed so far and no
// goroutine of the Pipe is running.
func (p *Pipe) Drain() {
	if p.running {
		p.work <- nil
		<-p.done
		p.running = false
	}
	ObserveAll(p.inner, p.open)
	p.open = p.open[:0]
}

// Snapshot implements Sink: Drain, then the inner sink's Snapshot.
func (p *Pipe) Snapshot() Snapshot {
	p.Drain()
	return p.inner.Snapshot()
}
