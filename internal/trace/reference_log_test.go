// Frozen copy of the flat-slice event log that the paged arena in trace.go
// replaced. It exists only as a differential-testing oracle (see
// TestArenaMatchesReferenceLog and FuzzLogRoundTrip): random Add/Addf/query
// sequences must produce identical results from both implementations.
// Mirrors the frozen reference queue in
// internal/sim/reference_queue_test.go and the reference solver in
// internal/lp/reference_test.go.
//
// Do not optimize this file. Its value is that it stays byte-for-byte the
// storage logic the goldens were recorded against.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// referenceLog is the retired flat-slice implementation: every append may
// realloc-copy the whole history, which is exactly why it was replaced —
// and exactly why it makes a trivially-correct oracle.
type referenceLog struct {
	events []Event
}

func (l *referenceLog) refAdd(ev Event) { l.events = append(l.events, ev) }

func (l *referenceLog) refAddf(at float64, kind Kind, req int64, dev int, value float64, format string, args ...any) {
	note := format
	if len(args) > 0 {
		note = fmt.Sprintf(format, args...)
	}
	l.events = append(l.events, Event{At: at, Kind: kind, Request: req, Device: dev, Value: value, Note: note})
}

func (l *referenceLog) refEvents() []Event { return l.events }

func (l *referenceLog) refLen() int { return len(l.events) }

func (l *referenceLog) refFilter(kind Kind) []Event {
	var out []Event
	for _, ev := range l.events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func (l *referenceLog) refCount(kind Kind) int {
	n := 0
	for _, ev := range l.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func (l *referenceLog) refWriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range l.events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("trace: encode: %w", err)
		}
	}
	return nil
}
