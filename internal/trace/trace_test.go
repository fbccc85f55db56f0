package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(Event{At: 1, Kind: KindArrival})
	l.Addf(2, KindDecode, 1, 0, 0, "x")
	if l.Len() != 0 || l.Events() != nil || l.Count(KindArrival) != 0 || l.Filter(KindArrival) != nil {
		t.Fatal("nil log should discard everything")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestAddAndFilter(t *testing.T) {
	l := &Log{}
	l.Add(Event{At: 0, Kind: KindArrival, Request: 1})
	l.Add(Event{At: 1, Kind: KindDecode, Request: 1})
	l.Add(Event{At: 2, Kind: KindDecode, Request: 1})
	l.Addf(3, KindFinish, 1, 0, 0, "done after %d steps", 2)
	if l.Len() != 4 {
		t.Fatalf("Len=%d want 4", l.Len())
	}
	if got := l.Count(KindDecode); got != 2 {
		t.Fatalf("Count(decode)=%d want 2", got)
	}
	fin := l.Filter(KindFinish)
	if len(fin) != 1 || fin[0].Note != "done after 2 steps" {
		t.Fatalf("filter/format wrong: %+v", fin)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := &Log{}
	l.Add(Event{At: 0.5, Kind: KindDispatch, Request: 7, Device: 3, Value: 40, Note: "heads"})
	l.Add(Event{At: 1.5, Kind: KindMigration, Request: 7, Device: 1, Value: 1 << 20})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("expected 2 lines, got %d: %q", got, buf.String())
	}
	dec := json.NewDecoder(&buf)
	for i, want := range l.Events() {
		var got Event
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("round trip mismatch on line %d: %+v vs %+v", i, got, want)
		}
	}
}
