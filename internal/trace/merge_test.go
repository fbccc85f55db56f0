package trace

import "testing"

func TestMergeByTimeOrdersAndTieBreaks(t *testing.T) {
	a, b, c := &Log{}, &Log{}, &Log{}
	// Interleaved nondecreasing streams with a three-way tie at t=2.
	for _, at := range []float64{0, 2, 2, 5} {
		a.Add(Event{At: at, Kind: KindDecode, Device: 0})
	}
	for _, at := range []float64{1, 2, 4} {
		b.Add(Event{At: at, Kind: KindDecode, Device: 1})
	}
	for _, at := range []float64{2, 3} {
		c.Add(Event{At: at, Kind: KindDecode, Device: 2})
	}
	m := MergeByTime(a, b, c)
	if m.Len() != a.Len()+b.Len()+c.Len() {
		t.Fatalf("merged %d events, want %d", m.Len(), a.Len()+b.Len()+c.Len())
	}
	evs := m.Events()
	last := evs[0].At
	for _, ev := range evs[1:] {
		if ev.At < last {
			t.Fatalf("merged log not time-ordered: %v", evs)
		}
		last = ev.At
	}
	// At the t=2 four-way tie, source 0's two events drain first, then
	// source 1's, then source 2's — position in the argument list, never
	// completion order.
	gotDevs := make([]int, len(evs))
	for i, ev := range evs {
		gotDevs[i] = ev.Device
	}
	want := []int{0, 1, 0, 0, 1, 2, 2, 1, 0}
	if len(gotDevs) != len(want) {
		t.Fatalf("got %d events, want %d", len(gotDevs), len(want))
	}
	for i := range want {
		if gotDevs[i] != want[i] {
			t.Fatalf("merged source order %v, want %v (ties must break to the earlier input)", gotDevs, want)
		}
	}
	// Inputs are not consumed.
	if a.Len() != 4 || b.Len() != 3 || c.Len() != 2 {
		t.Fatal("MergeByTime consumed its inputs")
	}
}

func TestMergeByTimeDegenerate(t *testing.T) {
	if got := MergeByTime(); got.Len() != 0 {
		t.Fatalf("empty merge has %d events", got.Len())
	}
	var nilLog *Log
	one := &Log{}
	one.Add(Event{At: 1, Kind: KindArrival})
	m := MergeByTime(nilLog, &Log{}, one)
	if m.Len() != 1 || m.Events()[0].At != 1 {
		t.Fatalf("merge with nil/empty inputs produced %v", m.Events())
	}
}

// Cross-page merge: streams longer than one page keep order across the
// page-boundary cursor advance.
func TestMergeByTimeAcrossPages(t *testing.T) {
	a, b := &Log{}, &Log{}
	n := pageEvents + 100
	for i := 0; i < n; i++ {
		a.Add(Event{At: float64(2 * i), Kind: KindDecode, Request: 1})
		b.Add(Event{At: float64(2*i + 1), Kind: KindDecode, Request: 2})
	}
	m := MergeByTime(a, b)
	if m.Len() != 2*n {
		t.Fatalf("merged %d events, want %d", m.Len(), 2*n)
	}
	i := 0
	ok := true
	m.Each(func(ev Event) bool {
		if ev.At != float64(i) {
			ok = false
			return false
		}
		i++
		return true
	})
	if !ok {
		t.Fatal("cross-page merge broke time order")
	}
}
