package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{3, 1, 2, 0.5, 2} {
		at := at
		s.Schedule(at, "e", func(s *Simulator) { got = append(got, at) })
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1, 2, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: got %v want %v", i, got, want)
		}
	}
}

func TestTieBreakInsertionOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1.0, "tie", func(s *Simulator) { got = append(got, i) })
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	s.Schedule(5, "a", func(s *Simulator) {
		if s.Now() != 5 {
			t.Errorf("Now=%g want 5", s.Now())
		}
		s.After(2.5, "b", func(s *Simulator) {
			if s.Now() != 7.5 {
				t.Errorf("Now=%g want 7.5", s.Now())
			}
		})
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 7.5 {
		t.Fatalf("final Now=%g want 7.5", s.Now())
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(10, "first", func(s *Simulator) {
		s.Schedule(3, "past", func(s *Simulator) {
			ran = true
			if s.Now() != 10 {
				t.Errorf("past event ran at %g want 10", s.Now())
			}
		})
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	ev := s.Schedule(1, "x", func(s *Simulator) { ran = true })
	if !s.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(ev) {
		t.Fatal("double Cancel returned true")
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelMiddleOfQueue(t *testing.T) {
	s := New()
	var got []string
	a := s.Schedule(1, "a", func(s *Simulator) { got = append(got, "a") })
	b := s.Schedule(2, "b", func(s *Simulator) { got = append(got, "b") })
	c := s.Schedule(3, "c", func(s *Simulator) { got = append(got, "c") })
	_ = a
	_ = c
	s.Cancel(b)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("got %v want [a c]", got)
	}
}

// TestCancelStaleHandleIsNoop pins the generation counter: cancelling a
// handle whose event already fired must be a safe no-op even when the
// pooled Event struct has been recycled into a newer scheduled event.
func TestCancelStaleHandleIsNoop(t *testing.T) {
	s := New()
	fired := 0
	stale := s.Schedule(1, "first", func(s *Simulator) { fired++ })
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("first event fired %d times", fired)
	}
	fresh := s.Schedule(2, "second", func(s *Simulator) { fired++ })
	if fresh.ev != stale.ev {
		t.Fatalf("test setup: pool did not recycle the fired event struct")
	}
	if s.Cancel(stale) {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("second event did not survive the stale cancel (fired=%d)", fired)
	}
	// The fresh handle is now stale too (its event fired).
	if s.Cancel(fresh) {
		t.Fatal("handle of a fired event reported a cancel")
	}
}

// TestCancelledEventRecycled pins that cancelled events return to the
// pool and their handles retire: a double Cancel through the recycled
// struct must not cancel the successor.
func TestCancelledEventRecycled(t *testing.T) {
	s := New()
	ran := false
	a := s.Schedule(1, "a", func(s *Simulator) {})
	if !s.Cancel(a) {
		t.Fatal("live handle failed to cancel")
	}
	b := s.Schedule(1, "b", func(s *Simulator) { ran = true })
	if b.ev != a.ev {
		t.Fatalf("test setup: cancelled struct was not recycled")
	}
	if s.Cancel(a) {
		t.Fatal("retired handle cancelled its successor")
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("successor event did not run")
	}
	if s.Cancel(Handle{}) {
		t.Fatal("zero Handle cancelled something")
	}
}

func TestHorizon(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(1, "in", func(s *Simulator) { count++ })
	s.Schedule(5, "at", func(s *Simulator) { count++ })
	s.Schedule(5.0001, "out", func(s *Simulator) { count++ })
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count=%d want 2 (horizon-inclusive)", count)
	}
	if s.Now() != 5 {
		t.Fatalf("Now=%g want horizon 5", s.Now())
	}
	// Resuming runs the rest.
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count=%d want 3 after resume", count)
	}
}

// TestHorizonDrainAdvancesClock pins the horizon-denominator fix: a run
// whose queue drains before a positive horizon still ends with Now at the
// horizon, so rates measured over the run divide by the requested window,
// not by the last event time.
func TestHorizonDrainAdvancesClock(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(1, "only", func(s *Simulator) { fired++ })
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired=%d want 1", fired)
	}
	if s.Now() != 10 {
		t.Fatalf("Now=%g want horizon 10 after early drain", s.Now())
	}
	// Unbounded runs keep the last-event clock: there is no window to
	// advance to.
	s2 := New()
	s2.Schedule(1, "only", func(s *Simulator) {})
	if err := s2.Run(0); err != nil {
		t.Fatal(err)
	}
	if s2.Now() != 1 {
		t.Fatalf("unbounded Now=%g want 1", s2.Now())
	}
	// A stop leaves the clock where it stopped: pending work resumes later.
	s3 := New()
	s3.Schedule(1, "stop", func(s *Simulator) { s.stopped = true })
	s3.Schedule(2, "later", func(s *Simulator) {})
	if err := s3.Run(10); err != nil {
		t.Fatal(err)
	}
	if s3.Now() != 1 {
		t.Fatalf("stopped Now=%g want 1 (pending work remains)", s3.Now())
	}
}

// TestStop pins the stopped flag a NaN schedule time sets: Run returns
// after the current event completes, and pending events stay queued.
func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(1, "a", func(s *Simulator) { count++; s.stopped = true })
	s.Schedule(2, "b", func(s *Simulator) { count++ })
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count=%d want 1 after a stop", count)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending=%d want 1", s.Pending())
	}
}

func TestMaxEventsGuard(t *testing.T) {
	s := New()
	s.MaxEvents = 100
	var loop func(s *Simulator)
	loop = func(s *Simulator) { s.After(1, "loop", loop) }
	s.Schedule(0, "loop", loop)
	if err := s.Run(0); err == nil {
		t.Fatal("expected runaway error, got nil")
	}
}

func TestPropertyOrderingRandom(t *testing.T) {
	// Property: for any multiset of schedule times, execution order is the
	// sorted order of the times.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		times := make([]float64, 0, int(n)%64+1)
		var got []float64
		for i := 0; i < cap(times); i++ {
			at := rng.Float64() * 100
			times = append(times, at)
			s.Schedule(at, "r", func(s *Simulator) { got = append(got, at) })
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		sort.Float64s(times)
		if len(got) != len(times) {
			return false
		}
		for i := range times {
			if got[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestNaNScheduleIsStickyError pins the NaN contract: a NaN time
// schedules nothing, hands back the inert Handle, and becomes the error
// Run returns, naming the event, after the event that scheduled it — and
// on every later Run.
func TestNaNScheduleIsStickyError(t *testing.T) {
	zero := 0.0
	nan := zero / zero // NaN without importing math in the test
	for _, seq := range []bool{false, true} {
		s := New()
		var ran []string
		s.Schedule(1, "first", func(s *Simulator) {
			ran = append(ran, "first")
			var h Handle
			if seq {
				h = s.ScheduleSeq(s.ReserveSeq(1), nan, "bad", func(*Simulator) { ran = append(ran, "bad") })
			} else {
				h = s.Schedule(nan, "bad", func(*Simulator) { ran = append(ran, "bad") })
			}
			if h != (Handle{}) || s.Cancel(h) {
				t.Error("a NaN schedule returned a live handle")
			}
		})
		s.Schedule(1, "same-time", func(*Simulator) { ran = append(ran, "same-time") })
		s.Schedule(2, "later", func(*Simulator) { ran = append(ran, "later") })
		for i := 0; i < 2; i++ {
			err := s.Run(0)
			if err == nil || !strings.Contains(err.Error(), `"bad"`) {
				t.Fatalf("seq %v, run %d: error %v, want one naming event \"bad\"", seq, i, err)
			}
		}
		if len(ran) != 1 || ran[0] != "first" {
			t.Fatalf("seq %v: ran %v, want only the event that scheduled NaN", seq, ran)
		}
	}
}
