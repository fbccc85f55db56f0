package sim

import (
	"math"
	"testing"
)

// FuzzQueueEquivalence drives the event queue and the frozen
// container/heap reference (reference_queue_test.go) through the same
// random schedule/cancel/pop sequence and requires identical (At, seq) pop
// orders. The byte stream decodes to ops of three bytes: the first selects
// the op, the next two parameterize it. Timestamps deliberately include
// fractional jitter (so nearby events carry distinct At values), exact
// ties (so seq breaks them), and jumps back below the last popped time.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte{})
	// Dense same-timestamp burst: seq tie-breaks.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 3, 0, 0})
	// Spread inserts then drain.
	f.Add([]byte{0, 10, 1, 0, 200, 7, 0, 3, 255, 1, 90, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0})
	// Cancel-heavy.
	f.Add([]byte{0, 5, 0, 0, 6, 0, 2, 0, 0, 0, 7, 0, 2, 1, 0, 3, 0, 0, 3, 0, 0})
	// Far-future then near-past: an insert below the last pop.
	f.Add([]byte{1, 255, 255, 3, 0, 0, 0, 1, 1, 3, 0, 0, 1, 200, 0, 0, 2, 2, 3, 0, 0, 3, 0, 0})
	// Cancel inside a seven-event heap: the event moved into the hole
	// must sift up past its new parent.
	f.Add([]byte{1, 210, 7, 0, 106, 1, 0, 130, 2, 1, 247, 5, 1, 187, 3, 1, 145, 2, 0, 113, 5, 2, 128, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			q    eventQueue
			ref  referenceQueue
			seq  uint64
			live []struct {
				ev  *Event
				ref *refEvent
			}
		)
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			switch op % 4 {
			case 0, 1: // schedule
				// The /7.0 fraction gives neighbours distinct timestamps;
				// op==1 widens the range by two decades.
				at := float64(a)/7.0 + float64(b)
				if op%4 == 1 {
					at = float64(a)*97.0 + float64(b)/3.0
				}
				ev := &Event{At: at, seq: seq}
				q.insert(ev)
				re := ref.refSchedule(at, seq)
				seq++
				live = append(live, struct {
					ev  *Event
					ref *refEvent
				}{ev, re})
			case 2: // cancel
				if len(live) == 0 {
					continue
				}
				k := (int(a)<<8 | int(b)) % len(live)
				v := live[k]
				live = append(live[:k], live[k+1:]...)
				gotLive := v.ev.pos >= 0
				refLive := v.ref.index >= 0
				if gotLive != refLive {
					t.Fatalf("liveness diverged for seq=%d: queue=%v reference=%v", v.ev.seq, gotLive, refLive)
				}
				if gotLive {
					q.unlink(v.ev)
					ref.refCancel(v.ref)
				}
			case 3: // pop the minimum
				got := q.min()
				want := ref.refPop()
				if (got == nil) != (want == nil) {
					t.Fatalf("emptiness diverged: queue=%v reference=%v", got != nil, want != nil)
				}
				if got == nil {
					continue
				}
				if got.At != want.at || got.seq != want.seq {
					t.Fatalf("pop diverged: queue (At=%g, seq=%d) vs reference (At=%g, seq=%d)",
						got.At, got.seq, want.at, want.seq)
				}
				q.unlink(got)
			}
			if len(q) != ref.Len() {
				t.Fatalf("length diverged: queue=%d reference=%d", len(q), ref.Len())
			}
		}
		// Drain both fully: every remaining event must come out in the
		// same order.
		for {
			got := q.min()
			want := ref.refPop()
			if (got == nil) != (want == nil) {
				t.Fatalf("drain emptiness diverged: queue=%v reference=%v", got != nil, want != nil)
			}
			if got == nil {
				break
			}
			if got.At != want.at || got.seq != want.seq {
				t.Fatalf("drain diverged: queue (At=%g, seq=%d) vs reference (At=%g, seq=%d)",
					got.At, got.seq, want.at, want.seq)
			}
			q.unlink(got)
		}
	})
}

// TestQueueInfinityClamp pins ordering at the top of the float range:
// +Inf and huge finite timestamps, some tied, still pop by exact (At, seq).
func TestQueueInfinityClamp(t *testing.T) {
	var q eventQueue
	huge := float64(uint64(1)<<62 - 1)
	evs := []*Event{
		{At: math.Inf(1), seq: 0},
		{At: huge * 2, seq: 1},
		{At: huge, seq: 2},
		{At: huge, seq: 3},
	}
	for _, ev := range evs {
		q.insert(ev)
	}
	wantSeq := []uint64{2, 3, 1, 0}
	for i, want := range wantSeq {
		got := q.min()
		if got.seq != want {
			t.Fatalf("pop %d: got seq %d, want %d", i, got.seq, want)
		}
		q.unlink(got)
	}
	if len(q) != 0 {
		t.Fatalf("queue not drained: n=%d", len(q))
	}
}
