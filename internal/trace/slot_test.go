package trace

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// Event fields chosen to hit the slot's edges: Devices at and beyond the
// int32 range, and Values whose bits a careless store would change.
var (
	edgeDevices = []int{
		0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1,
		1 << 40, -1 << 40, math.MaxInt64, math.MinInt64,
	}
	edgeValues = []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with payload
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff8_0000_0000_0042), // negative NaN with payload
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
)

// sameEvent compares two events bit for bit: NaN Values equal when their
// bits do, and -0 differs from +0.
func sameEvent(a, b Event) bool {
	return math.Float64bits(a.At) == math.Float64bits(b.At) && a.Kind == b.Kind &&
		a.Request == b.Request && a.Device == b.Device &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Note == b.Note
}

func checkSameEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameEvent(got[i], want[i]) {
			t.Fatalf("%s[%d]: %+v, oracle %+v", what, i, got[i], want[i])
		}
	}
}

// checkAgainstOracle runs every Log query against the flat-slice oracle:
// Len, Events, Each (full and stopped early), Count and Filter for each
// of kinds, and the WriteJSONL bytes.
func checkAgainstOracle(t *testing.T, name string, l *Log, ref *referenceLog, kinds []Kind, stop int) {
	t.Helper()
	if l.Len() != ref.refLen() {
		t.Fatalf("%s: Len %d, oracle %d", name, l.Len(), ref.refLen())
	}
	checkSameEvents(t, name+" Events", l.Events(), ref.refEvents())
	var walked []Event
	l.Each(func(ev Event) bool {
		walked = append(walked, ev)
		return len(walked) < stop
	})
	want := ref.refEvents()
	if stop < len(want) {
		want = want[:stop]
	}
	checkSameEvents(t, name+" Each", walked, want)
	for _, k := range kinds {
		if got, want := l.Count(k), ref.refCount(k); got != want {
			t.Fatalf("%s: Count(%q) %d, oracle %d", name, k, got, want)
		}
		checkSameEvents(t, name+" Filter("+string(k)+")", l.Filter(k), ref.refFilter(k))
	}
	// The oracle writes line by line, so after an encoding error (NaN or
	// ±Inf) it has written every line before the bad event; the log must
	// have flushed exactly those.
	var got, wantJSON bytes.Buffer
	gotErr, wantErr := l.WriteJSONL(&got), ref.refWriteJSONL(&wantJSON)
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: WriteJSONL error %v, oracle %v", name, gotErr, wantErr)
	case !bytes.Equal(got.Bytes(), wantJSON.Bytes()):
		t.Fatalf("%s: WriteJSONL wrote %d bytes, the oracle %d", name, got.Len(), wantJSON.Len())
	}
}

// refMerge is the oracle merge: repeatedly take the earliest head, ties to
// the earlier log.
func refMerge(refs []*referenceLog) *referenceLog {
	next := make([]int, len(refs))
	out := &referenceLog{}
	for {
		best := -1
		for s, r := range refs {
			if next[s] < len(r.events) && (best < 0 || r.events[next[s]].At < refs[best].events[next[best]].At) {
				best = s
			}
		}
		if best < 0 {
			return out
		}
		out.refAdd(refs[best].events[next[best]])
		next[best]++
	}
}

// FuzzLogRoundTrip drives packed logs and the flat-slice oracle with the
// same events and requires every query to agree bit for bit, on each log
// and on their MergeByTime. The inputs reach every escape: Devices beyond
// int32, more kinds than the kind table holds, and (with noteLimit) more
// notes than the note table holds, beside NaN payloads, -0 and ±Inf.
func FuzzLogRoundTrip(f *testing.F) {
	// seed, events, kinds, notes, noteLimit, logs
	f.Add(int64(1), uint16(300), uint16(4), uint16(2), uint16(0), uint8(1))
	f.Add(int64(2), uint16(20000), uint16(600), uint16(3000), uint16(0), uint8(3))
	f.Add(int64(3), uint16(9000), uint16(12), uint16(4000), uint16(100), uint8(2))
	f.Add(int64(4), uint16(8192), uint16(1), uint16(0), uint16(2), uint8(1))
	f.Add(int64(5), uint16(0), uint16(0), uint16(0), uint16(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, events, kinds, notes, noteLimit uint16, logs uint8) {
		rng := rand.New(rand.NewSource(seed))
		nLogs := 1 + int(logs)%4
		nKinds := 1 + int(kinds)%1024
		nNotes := int(notes) % 8192
		edges := rng.Intn(2) == 0 // half the inputs stay JSON-encodable
		packed := make([]*Log, nLogs)
		refs := make([]*referenceLog, nLogs)
		ats := make([]float64, nLogs)
		for s := range packed {
			packed[s] = &Log{noteLimit: int(noteLimit)}
			refs[s] = &referenceLog{}
			if rng.Intn(2) == 0 {
				ats[s] = math.Copysign(0, -1)
			}
		}
		seen := map[Kind]bool{}
		var order []Kind
		for i := 0; i < int(events)%25000; i++ {
			s := rng.Intn(nLogs)
			switch r := rng.Intn(100); {
			case r < 40: // a tie with the previous event
			case r < 99:
				ats[s] += rng.Float64()
			case edges:
				ats[s] = math.Inf(1)
			}
			ev := Event{
				At:      ats[s],
				Kind:    Kind("k" + strconv.Itoa(rng.Intn(nKinds))),
				Request: rng.Int63() - rng.Int63(),
				Device:  rng.Intn(16) - 1,
				Value:   rng.NormFloat64() * 1e6,
			}
			if rng.Intn(8) == 0 {
				ev.Kind = ""
			}
			if rng.Intn(4) == 0 {
				ev.Device = edgeDevices[rng.Intn(len(edgeDevices))]
			}
			if edges && rng.Intn(16) == 0 {
				ev.Value = edgeValues[rng.Intn(len(edgeValues))]
			}
			if nNotes > 0 && rng.Intn(2) == 0 {
				ev.Note = "n" + strconv.Itoa(rng.Intn(nNotes))
			}
			if !seen[ev.Kind] {
				seen[ev.Kind] = true
				order = append(order, ev.Kind)
			}
			if rng.Intn(3) == 0 {
				packed[s].Addf(ev.At, ev.Kind, ev.Request, ev.Device, ev.Value, "f%d", ev.Device)
				refs[s].refAddf(ev.At, ev.Kind, ev.Request, ev.Device, ev.Value, "f%d", ev.Device)
				continue
			}
			packed[s].Add(ev)
			refs[s].refAdd(ev)
		}
		// Query the first kinds seen, those around the kind table's limit,
		// the last, and one never added.
		var query []Kind
		for _, i := range []int{0, 1, 2, maxKinds - 1, maxKinds, maxKinds + 1, len(order) - 1} {
			if i >= 0 && i < len(order) {
				query = append(query, order[i])
			}
		}
		query = append(query, "never")
		stop := 1 + rng.Intn(2*pageEvents)
		for s := range packed {
			checkAgainstOracle(t, "log "+strconv.Itoa(s), packed[s], refs[s], query, stop)
		}
		checkAgainstOracle(t, "merge", MergeByTime(packed...), refMerge(refs), query, stop)
	})
}

// TestEachEscapeRoundTrips pins that each reason an event cannot take a
// packed slot really escapes, and that the escaped events read back
// exactly, in place among packed ones.
func TestEachEscapeRoundTrips(t *testing.T) {
	cases := []struct {
		name string
		log  *Log
		add  func(l *Log, ref *referenceLog)
	}{
		{"device beyond int32", &Log{}, func(l *Log, ref *referenceLog) {
			for _, d := range []int{math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64} {
				ev := Event{At: 1, Kind: KindDecode, Device: d, Value: 2, Note: "wide"}
				l.Add(ev)
				ref.refAdd(ev)
			}
		}},
		{"kind table full", &Log{}, func(l *Log, ref *referenceLog) {
			for k := 0; k < maxKinds+3; k++ {
				ev := Event{At: float64(k), Kind: Kind("k" + strconv.Itoa(k)), Request: int64(k)}
				l.Add(ev)
				ref.refAdd(ev)
			}
		}},
		{"note table full", &Log{noteLimit: 4}, func(l *Log, ref *referenceLog) {
			for k := 0; k < 8; k++ {
				l.Addf(float64(k), KindFinish, int64(k), 0, 0, "note %d", k)
				ref.refAddf(float64(k), KindFinish, int64(k), 0, 0, "note %d", k)
			}
		}},
	}
	for _, c := range cases {
		ref := &referenceLog{}
		c.log.Add(Event{At: -1, Kind: KindArrival, Device: math.MinInt32, Value: math.Copysign(0, -1)})
		ref.refAdd(Event{At: -1, Kind: KindArrival, Device: math.MinInt32, Value: math.Copysign(0, -1)})
		c.add(c.log, ref)
		if len(c.log.escaped) == 0 {
			t.Fatalf("%s: no event escaped", c.name)
		}
		kinds := []Kind{KindArrival, KindDecode, KindFinish, "k0", Kind("k" + strconv.Itoa(maxKinds+1))}
		checkAgainstOracle(t, c.name, c.log, ref, kinds, ref.refLen())
	}
}

// TestBytesPerEvent pins the arena's footprint: a million appends of the
// BenchmarkAppend1M mix allocate at most 33 B per event, the 32 B slot
// plus page-table and note-table slack. An Event-per-slot arena takes 64.
func TestBytesPerEvent(t *testing.T) {
	const n = 1_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var log Log
	appendMix(&log, n)
	runtime.ReadMemStats(&after)
	if log.Len() != n {
		t.Fatalf("logged %d of %d events", log.Len(), n)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 33 {
		t.Fatalf("%.2f heap bytes per stored event, want at most 33", per)
	}
}
