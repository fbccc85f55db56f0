package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// arenaKinds is the kind alphabet the differential tests draw from.
var arenaKinds = []Kind{
	KindArrival, KindPrefill, KindDecode, KindDispatch, KindFinish,
	KindMigration, KindEviction, KindSample, KindDrop,
}

// TestArenaMatchesReferenceLog drives the paged arena and the frozen
// flat-slice oracle with the same random Add/Addf stream — long enough to
// cross several page boundaries — and requires every query to agree.
func TestArenaMatchesReferenceLog(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := &Log{}
	ref := &referenceLog{}
	n := 3*pageEvents + 417 // four pages, last one partial
	for i := 0; i < n; i++ {
		ev := Event{
			At:      rng.Float64() * 100,
			Kind:    arenaKinds[rng.Intn(len(arenaKinds))],
			Request: int64(rng.Intn(512)),
			Device:  rng.Intn(8),
			Value:   float64(rng.Intn(1000)),
		}
		switch i % 3 {
		case 0:
			l.Add(ev)
			ref.refAdd(ev)
		case 1:
			l.Addf(ev.At, ev.Kind, ev.Request, ev.Device, ev.Value, "static note")
			ref.refAddf(ev.At, ev.Kind, ev.Request, ev.Device, ev.Value, "static note")
		default:
			l.Addf(ev.At, ev.Kind, ev.Request, ev.Device, ev.Value, "dev=%d", ev.Device)
			ref.refAddf(ev.At, ev.Kind, ev.Request, ev.Device, ev.Value, "dev=%d", ev.Device)
		}
	}
	if l.Len() != ref.refLen() {
		t.Fatalf("Len: arena %d, oracle %d", l.Len(), ref.refLen())
	}
	if !reflect.DeepEqual(l.Events(), ref.refEvents()) {
		t.Fatal("Events diverged from the flat-slice oracle")
	}
	for _, k := range arenaKinds {
		if got, want := l.Count(k), ref.refCount(k); got != want {
			t.Fatalf("Count(%s): arena %d, oracle %d", k, got, want)
		}
		if !reflect.DeepEqual(l.Filter(k), ref.refFilter(k)) {
			t.Fatalf("Filter(%s) diverged", k)
		}
	}
	// Each must visit the same sequence Events returns, and honor early
	// stop.
	var walked []Event
	l.Each(func(ev Event) bool {
		walked = append(walked, ev)
		return true
	})
	if !reflect.DeepEqual(walked, ref.refEvents()) {
		t.Fatal("Each diverged from the oracle order")
	}
	steps := 0
	l.Each(func(Event) bool {
		steps++
		return steps < 5
	})
	if steps != 5 {
		t.Fatalf("Each ignored early stop: %d steps", steps)
	}
}

// TestWriteJSONLMatchesReference is the output-equivalence check for the
// buffered single-encoder writer: byte-identical JSONL against the frozen
// per-event encoder across page boundaries.
func TestWriteJSONLMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := &Log{}
	ref := &referenceLog{}
	for i := 0; i < pageEvents+123; i++ {
		ev := Event{
			At:      rng.Float64() * 10,
			Kind:    arenaKinds[rng.Intn(len(arenaKinds))],
			Request: int64(i),
			Device:  rng.Intn(4),
			Value:   rng.Float64(),
			Note:    "",
		}
		if i%7 == 0 {
			ev.Note = "annotated"
		}
		l.Add(ev)
		ref.refAdd(ev)
	}
	var got, want bytes.Buffer
	if err := l.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.refWriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("buffered JSONL output differs from the reference encoder")
	}
}

// TestViewsAreCopies pins the Events/Filter contract: the slices they
// return are copies, so appends that fill the log's last page and grow new
// ones never change a view taken earlier, and writing to a view never
// changes the log.
func TestViewsAreCopies(t *testing.T) {
	l := &Log{}
	n := 2*pageEvents + 57
	for i := 0; i < n; i++ {
		l.Add(Event{At: float64(i), Kind: KindDecode, Request: int64(i), Note: "first"})
	}
	snapshot := l.Events()
	filtered := l.Filter(KindDecode)
	for i := 0; i < n; i++ {
		l.Add(Event{At: float64(-i), Kind: KindPrefill, Request: int64(i + 1000), Note: "second"})
	}
	for i, ev := range snapshot {
		if ev.At != float64(i) || ev.Kind != KindDecode || ev.Note != "first" {
			t.Fatalf("snapshot[%d] changed by later appends: %+v", i, ev)
		}
	}
	if len(snapshot) != n || len(filtered) != n || filtered[n-1].Request != int64(n-1) {
		t.Fatalf("views grew with the log: events %d, filtered %d", len(snapshot), len(filtered))
	}
	snapshot[0].Note = "edited"
	filtered[1].Note = "edited"
	if evs := l.Events(); evs[0].Note != "first" || evs[1].Note != "first" {
		t.Fatal("writing to a view changed the log")
	}
	if l.Len() != 2*n || l.Count(KindPrefill) != n {
		t.Fatalf("log miscounts: len=%d", l.Len())
	}
}
