package sim

import "testing"

func TestGroupCancelAll(t *testing.T) {
	s := New()
	fired := 0
	var g Group
	for i := 0; i < 5; i++ {
		g.Track(s, s.Schedule(float64(i+1), "ev", func(s *Simulator) { fired++ }))
	}
	// One unrelated event must survive the group cancel.
	s.Schedule(10, "other", func(s *Simulator) { fired += 100 })

	if n := g.CancelAll(s); n != 5 {
		t.Fatalf("CancelAll cancelled %d events, want 5", n)
	}
	if g.Len() != 0 {
		t.Fatalf("group not emptied: %d handles", g.Len())
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("fired=%d, want only the unrelated event (100)", fired)
	}
}

func TestGroupStaleHandlesAreSafe(t *testing.T) {
	s := New()
	var g Group
	fired := 0
	g.Track(s, s.Schedule(1, "a", func(s *Simulator) { fired++ }))
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired=%d", fired)
	}
	// The event ran; its struct may be recycled for a new event. Cancelling
	// the group must not touch the recycled occurrence.
	s.Schedule(2, "b", func(s *Simulator) { fired++ })
	if n := g.CancelAll(s); n != 0 {
		t.Fatalf("CancelAll cancelled %d stale events, want 0", n)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired=%d, want 2 (recycled event must still run)", fired)
	}
}

func TestGroupPrunesDeadHandles(t *testing.T) {
	s := New()
	var g Group
	// Schedule and fire many events one at a time; the group must not grow
	// with the total ever tracked.
	for i := 0; i < 1000; i++ {
		g.Track(s, s.After(0, "tick", func(s *Simulator) {}))
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if g.Len() >= 64 {
		t.Fatalf("group holds %d handles after all events fired; pruning failed", g.Len())
	}
}

func TestAlive(t *testing.T) {
	s := New()
	h := s.Schedule(1, "ev", func(s *Simulator) {})
	if !s.Alive(h) {
		t.Fatal("pending handle not alive")
	}
	if s.Alive(Handle{}) {
		t.Fatal("zero handle alive")
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Alive(h) {
		t.Fatal("fired handle still alive")
	}
	h2 := s.Schedule(2, "ev2", func(s *Simulator) {})
	s.Cancel(h2)
	if s.Alive(h2) {
		t.Fatal("cancelled handle still alive")
	}
}
