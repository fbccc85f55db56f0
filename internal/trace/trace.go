// Package trace records structured simulation events. Engines emit events
// (request arrival, prefill/decode steps, dispatch decisions, migrations,
// evictions); experiments replay them to build time series such as Fig. 14's
// per-device cache-usage and head-count curves, and a JSONL writer dumps
// them for offline inspection.
//
// Storage is a paged arena: events land in fixed-size pages chained into a
// list, so appending never realloc-copies the whole log the way a flat
// slice does (at megascale that was hundreds of MB of copy traffic per
// run). Pages belong to the garbage collector like any other allocation.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Kind labels an event type.
type Kind string

// Event kinds emitted by the engines.
const (
	KindArrival    Kind = "arrival"
	KindPrefill    Kind = "prefill"
	KindDecode     Kind = "decode"
	KindDispatch   Kind = "dispatch"
	KindRedispatch Kind = "redispatch"
	KindMigration  Kind = "migration"
	KindEviction   Kind = "eviction"
	KindFinish     Kind = "finish"
	KindSample     Kind = "sample" // periodic device-state sample

	// Chaos-layer kinds: replica lifecycle, load shedding, and priority
	// preemption. KindScale's Value is +1 for a scale-up and -1 for a
	// scale-down decision; KindFailure/KindRecover carry the replica index
	// in Device.
	KindFailure Kind = "failure"
	KindRecover Kind = "recover"
	KindDrop    Kind = "drop"
	KindScale   Kind = "scale"
	KindPreempt Kind = "preempt"
)

// Event is one timestamped record.
type Event struct {
	At      float64 `json:"at"`
	Kind    Kind    `json:"kind"`
	Request int64   `json:"req,omitempty"`
	Device  int     `json:"dev,omitempty"`
	// Value carries the kind-specific payload: heads dispatched, bytes
	// migrated, cache utilization sampled, etc.
	Value float64 `json:"value,omitempty"`
	// Note is an optional free-form annotation.
	Note string `json:"note,omitempty"`
}

// pageEvents is the arena page size. 4096 events × 64 B/event keeps each
// page at 256 KB — large enough that the page-boundary branch in Add is
// one miss in four thousand, small enough that a short run wastes at most
// one page.
const pageEvents = 4096

// page is one fixed-size arena block, chained through next.
type page struct {
	next *page
	n    int
	ev   [pageEvents]Event
}

// Log accumulates events in memory. The zero value is ready to use. A nil
// *Log discards everything, so engines can trace unconditionally.
type Log struct {
	head *page
	tail *page
	n    int
}

// grow links a fresh page at the tail.
func (l *Log) grow() *page {
	p := new(page)
	if l.tail == nil {
		l.head = p
	} else {
		l.tail.next = p
	}
	l.tail = p
	return p
}

// Add appends an event. Safe on a nil receiver (no-op).
func (l *Log) Add(ev Event) {
	if l == nil {
		return
	}
	p := l.tail
	if p == nil || p.n == pageEvents {
		p = l.grow()
	}
	p.ev[p.n] = ev
	p.n++
	l.n++
}

// Addf is a convenience constructor-and-append. A format string with no
// args is stored verbatim — the hot-path contract: engines pass static
// notes and pay nothing for formatting.
func (l *Log) Addf(at float64, kind Kind, req int64, dev int, value float64, format string, args ...any) {
	if l == nil {
		return
	}
	note := format
	if len(args) > 0 {
		note = fmt.Sprintf(format, args...)
	}
	l.Add(Event{At: at, Kind: kind, Request: req, Device: dev, Value: value, Note: note})
}

// Each calls fn for every event in emission order, stopping early when fn
// returns false — iteration without materializing the stitched copy
// Events builds. Nil-safe.
func (l *Log) Each(fn func(Event) bool) {
	if l == nil {
		return
	}
	for p := l.head; p != nil; p = p.next {
		for i := range p.ev[:p.n] {
			if !fn(p.ev[i]) {
				return
			}
		}
	}
}

// Events returns the recorded events in emission order as one stitched
// slice. The slice is a copy: later appends never change it. Nil-safe.
func (l *Log) Events() []Event {
	if l == nil || l.n == 0 {
		return nil
	}
	out := make([]Event, 0, l.n)
	for p := l.head; p != nil; p = p.next {
		out = append(out, p.ev[:p.n]...)
	}
	return out
}

// Len reports the event count. Nil-safe.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Filter returns the events matching the kind, preserving order.
func (l *Log) Filter(kind Kind) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for p := l.head; p != nil; p = p.next {
		for i := range p.ev[:p.n] {
			if p.ev[i].Kind == kind {
				out = append(out, p.ev[i])
			}
		}
	}
	return out
}

// Count returns the number of events of a kind.
func (l *Log) Count(kind Kind) int {
	if l == nil {
		return 0
	}
	n := 0
	for p := l.head; p != nil; p = p.next {
		for i := range p.ev[:p.n] {
			if p.ev[i].Kind == kind {
				n++
			}
		}
	}
	return n
}

// WriteJSONL streams the log as one JSON object per line through a single
// buffered encoder.
func (l *Log) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for p := l.head; p != nil; p = p.next {
		for i := range p.ev[:p.n] {
			if err := enc.Encode(&p.ev[i]); err != nil {
				return fmt.Errorf("trace: encode: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}
