// Frozen copy of the container/heap event queue the goldens were first
// recorded against. It exists only as a differential-testing oracle for
// the hand-written heap in sim.go (see FuzzQueueEquivalence): random
// schedule/cancel/pop sequences must produce the same (At, seq) order from
// both implementations. Mirrors the frozen reference solver in
// internal/lp/reference_test.go.
//
// Do not optimize this file. Its value is that it stays byte-for-byte the
// ordering logic the goldens were recorded against.
package sim

import "container/heap"

// refEvent is the oracle's pending entry: the ordering key only, since the
// oracle never fires callbacks.
type refEvent struct {
	at    float64
	seq   uint64
	index int
}

// referenceQueue implements heap.Interface ordered by (at, seq), exactly
// as the retired eventQueue did.
type referenceQueue []*refEvent

func (q referenceQueue) Len() int { return len(q) }

func (q referenceQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q referenceQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *referenceQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *referenceQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// refSchedule inserts an entry and returns it for later cancellation.
func (q *referenceQueue) refSchedule(at float64, seq uint64) *refEvent {
	ev := &refEvent{at: at, seq: seq}
	heap.Push(q, ev)
	return ev
}

// refCancel removes a pending entry; stale entries (already popped) report
// false, matching Simulator.Cancel's contract.
func (q *referenceQueue) refCancel(ev *refEvent) bool {
	if ev.index < 0 {
		return false
	}
	heap.Remove(q, ev.index)
	return true
}

// refPop removes and returns the minimum entry, or nil when empty.
func (q *referenceQueue) refPop() *refEvent {
	if len(*q) == 0 {
		return nil
	}
	return heap.Pop(q).(*refEvent)
}
