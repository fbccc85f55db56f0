// Package trace records structured simulation events. Engines emit events
// (request arrival, prefill/decode steps, dispatch decisions, migrations,
// evictions); experiments replay them to build time series such as Fig. 14's
// per-device cache-usage and head-count curves, and a JSONL writer dumps
// them for offline inspection.
//
// Storage is a paged arena: events land in fixed-size 256 KB pages, so
// appending never realloc-copies the whole log the way a flat slice does
// (at megascale that was hundreds of MB of copy traffic per run). Each
// event is packed into a 32-byte pointer-free slot: At, Request and Value
// bit for bit, Device as an int32, and one word indexing the log's own
// kind and note tables. An event that does not fit takes an escape slot
// pointing into a side table of full Events, so every read decodes to an
// Event equal to the one added. Pages belong to the garbage collector like
// any other allocation.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
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

// pageEvents is the arena page size. 8192 slots × 32 B keeps each page at
// 256 KB — large enough that the page-boundary branch in Add is one miss
// in eight thousand, small enough that a short run wastes at most one page.
const pageEvents = 8192

// Slot tag layout: the high kindBits index the log's kind table and the
// low noteBits its note table. The all-ones kind index is the escape
// sentinel.
const (
	kindBits  = 8
	noteBits  = 32 - kindBits
	noteMask  = 1<<noteBits - 1
	escKind   = 1<<kindBits - 1 // kind index of an escaped slot
	maxKinds  = escKind         // kind indices 0..254
	noteSlots = 1 << noteBits   // note indices 0..2^24-1, "" included
)

// slot is one stored event in 32 B with no pointers, so the collector
// never scans a page's events. At, Request and Value are the event's own
// bits and Device fits in int32; tag packs the kind and note indices. An
// event that does not fit (a Device outside int32, a full kind or note
// table) is escaped: tag's kind index is escKind, req indexes the log's
// side table of full Events, and at still holds At so MergeByTime can
// order the slot without decoding it.
type slot struct {
	at    float64
	req   int64
	value float64
	dev   int32
	tag   uint32
}

// page is one fixed-size arena block. It holds no pointers, so the
// collector never scans it, and at exactly 256 KB it fills its runtime
// pages with nothing rounded up.
type page [pageEvents]slot

// Log accumulates events in memory. The zero value is ready to use. A nil
// *Log discards everything, so engines can trace unconditionally.
//
// The kind and note tables live in the Log, never in the package, so
// logs on concurrent shards share nothing.
type Log struct {
	pages []*page // full pages, then the partly filled tail
	n     int

	kinds    []Kind            // kind index → kind; Add scans it, no hashing
	notes    []string          // note index → note; notes[0] is ""
	noteIdx  map[string]uint32 // note → index, for interning
	lastNote string            // the note last interned or found, and its
	lastIdx  uint32            // index: a repeated note skips the hash
	escaped  []Event           // side table of events no slot can hold

	// noteLimit caps the note table below noteSlots when nonzero, so tests
	// reach the note escape without interning 16M strings.
	noteLimit int
}

// filled returns page pi's stored slots.
func (l *Log) filled(pi int) []slot {
	if pi == len(l.pages)-1 {
		return l.pages[pi][:l.n-pi*pageEvents]
	}
	return l.pages[pi][:]
}

// kindIndex returns k's index, adding it to the kind table if there is
// room.
func (l *Log) kindIndex(k Kind) (uint32, bool) {
	if i, ok := l.findKind(k); ok {
		return i, true
	}
	if len(l.kinds) == maxKinds {
		return 0, false
	}
	l.kinds = append(l.kinds, k)
	return uint32(len(l.kinds) - 1), true
}

// findKind returns k's index if the kind table holds it.
func (l *Log) findKind(k Kind) (uint32, bool) {
	for i, have := range l.kinds {
		if have == k {
			return uint32(i), true
		}
	}
	return 0, false
}

// noteIndex interns s, returning its note index if the table has room.
func (l *Log) noteIndex(s string) (uint32, bool) {
	if s == "" {
		return 0, true
	}
	if s == l.lastNote {
		return l.lastIdx, true
	}
	if i, ok := l.noteIdx[s]; ok {
		l.lastNote, l.lastIdx = s, i
		return i, true
	}
	limit := noteSlots
	if l.noteLimit > 0 {
		limit = l.noteLimit
	}
	if l.notes == nil {
		l.notes = []string{""}
		l.noteIdx = make(map[string]uint32)
	}
	if len(l.notes) >= limit {
		return 0, false
	}
	i := uint32(len(l.notes))
	l.notes = append(l.notes, s)
	l.noteIdx[s] = i
	l.lastNote, l.lastIdx = s, i
	return i, true
}

// Add appends an event. Safe on a nil receiver (no-op). It stays small
// enough to inline, so an untraced run's nil check costs no call.
func (l *Log) Add(ev Event) {
	if l == nil {
		return
	}
	l.add(ev)
}

// add packs ev into the next slot, escaping it if it does not fit.
func (l *Log) add(ev Event) {
	i := l.n % pageEvents
	if i == 0 {
		l.pages = append(l.pages, new(page))
	}
	s := &l.pages[len(l.pages)-1][i]
	l.n++
	if dev := int32(ev.Device); int(dev) == ev.Device {
		if ki, ok := l.kindIndex(ev.Kind); ok {
			if ni, ok := l.noteIndex(ev.Note); ok {
				*s = slot{at: ev.At, req: ev.Request, value: ev.Value, dev: dev, tag: ki<<noteBits | ni}
				return
			}
		}
	}
	*s = slot{at: ev.At, req: int64(len(l.escaped)), tag: escKind << noteBits}
	l.escaped = append(l.escaped, ev)
}

// decode rebuilds the Event a slot stores, bit for bit the one added.
func (l *Log) decode(s *slot) Event {
	ki := s.tag >> noteBits
	if ki == escKind {
		return l.escaped[s.req]
	}
	ev := Event{At: s.at, Kind: l.kinds[ki], Request: s.req, Device: int(s.dev), Value: s.value}
	if ni := s.tag & noteMask; ni != 0 {
		ev.Note = l.notes[ni]
	}
	return ev
}

// hasKind reports whether the slot's event has the given kind, whose
// table index is ki when known is true.
func (l *Log) hasKind(s *slot, kind Kind, ki uint32, known bool) bool {
	si := s.tag >> noteBits
	if si == escKind {
		return l.escaped[s.req].Kind == kind
	}
	return known && si == ki
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
	for pi := range l.pages {
		ss := l.filled(pi)
		for i := range ss {
			if !fn(l.decode(&ss[i])) {
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
	for pi := range l.pages {
		ss := l.filled(pi)
		for i := range ss {
			out = append(out, l.decode(&ss[i]))
		}
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
	ki, known := l.findKind(kind)
	var out []Event
	for pi := range l.pages {
		ss := l.filled(pi)
		for i := range ss {
			if l.hasKind(&ss[i], kind, ki, known) {
				out = append(out, l.decode(&ss[i]))
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
	ki, known := l.findKind(kind)
	n := 0
	for pi := range l.pages {
		ss := l.filled(pi)
		for i := range ss {
			if l.hasKind(&ss[i], kind, ki, known) {
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
	for pi := range l.pages {
		ss := l.filled(pi)
		for i := range ss {
			ev := l.decode(&ss[i])
			if err := enc.Encode(&ev); err != nil {
				// Encode writes nothing for an event it refuses, so the
				// writer gets exactly the lines before it.
				return errors.Join(fmt.Errorf("trace: encode: %w", err), bw.Flush())
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}
