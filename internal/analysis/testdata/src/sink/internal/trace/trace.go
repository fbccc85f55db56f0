// Package trace exercises sinkdiscipline's nil-guard contract: every
// exported method on *Log must open with `if l == nil`, because callers
// hold a nil log whenever tracing is disabled.
package trace

type Log struct{ events []int }

func (l *Log) Append(v int) { // want `does not start with a nil-receiver guard`
	l.events = append(l.events, v)
}

func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

func (l *Log) Events() []int {
	if nil == l {
		return nil
	}
	return l.events
}

func (l *Log) First() int {
	if l == nil || len(l.events) == 0 {
		return 0
	}
	return l.events[0]
}

func (l *Log) Guardless() int { // want `does not start with a nil-receiver guard`
	if len(l.events) == 0 || l == nil {
		return 0
	}
	return len(l.events)
}

// Clear has no results, so the guard is a bare early return — still a
// leading nil guard.
func (l *Log) Clear() {
	if l == nil {
		return
	}
	l.events = nil
}

// Each mirrors the zero-copy visitor: a callback parameter does not
// change the receiver contract.
func (l *Log) Each(fn func(int) bool) {
	if l == nil {
		return
	}
	for _, v := range l.events {
		if !fn(v) {
			return
		}
	}
}

// Drain shows the visitor shape with the guard missing: iterating an
// empty slice would be safe, but the contract is syntactic on purpose.
func (l *Log) Drain(fn func(int)) { // want `does not start with a nil-receiver guard`
	for _, v := range l.events {
		fn(v)
	}
	l.events = l.events[:0]
}

// unexported methods run only behind the exported guards.
func (l *Log) reset() { l.events = nil }
