package engine

import (
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// FuzzFailureSchedule throws randomized kill/recover timelines — arbitrary
// replica indices, overlapping windows, zero-length gaps, haul and lose
// policies — at every engine and checks the invariants no schedule may
// break: the run terminates without panicking, stays inside the runaway
// event budget, keeps the request-conservation ledger closed, and emits
// causally ordered records. Each run must also match its twin with retired
// requests poisoned instead of recycled (checkSameRun), so no engine reads
// a request after it retires, whatever the failure schedule.
//
// The corpus encodes a schedule in 8 bytes: each pair (a, b) becomes one
// failure window on replica a%3 over [start, start+len) derived from b.
func FuzzFailureSchedule(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(2), false)
	f.Add([]byte{1, 7, 1, 9, 2, 50, 0, 200}, uint8(3), true)
	f.Add([]byte{255, 255, 254, 1, 3, 3, 9, 81}, uint8(1), false)

	reqs := workload.Poisson(workload.HumanEval, 4, 15, 11)
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())

	f.Fuzz(func(t *testing.T, plan []byte, replicas uint8, haul bool) {
		chaos := &ChaosConfig{Replicas: int(replicas % 4)}
		for i := 0; i+1 < len(plan) && len(chaos.Failures) < 6; i += 2 {
			start := float64(plan[i]) * 0.1
			chaos.Failures = append(chaos.Failures, FailureWindow{
				Replica: int(plan[i]) % 3,
				Start:   start,
				End:     start + 0.1 + float64(plan[i+1])*0.05,
				HaulKV:  haul,
			})
		}
		c := cfg
		c.Chaos = chaos
		if err := c.Validate(); err != nil {
			t.Fatalf("generated config invalid: %v", err)
		}
		for _, name := range Names {
			eng, err := NewByName(name, c, reqs)
			if err != nil {
				t.Fatalf("%s: build: %v", name, err)
			}
			res, err := eng.Run(reqs, 400)
			if err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
			checkSameRun(t, name, res, runPoisoned(t, name, c, reqs, 400))
			if got := res.Completed + res.Dropped + res.Queued; got != len(reqs) {
				t.Errorf("%s: ledger leak: completed %d + dropped %d + queued %d = %d, offered %d",
					name, res.Completed, res.Dropped, res.Queued, got, len(reqs))
			}
			if res.Events > c.MaxSimEvents(len(reqs)) {
				t.Errorf("%s: %d events exceed the runaway budget %d", name, res.Events, c.MaxSimEvents(len(reqs)))
			}
			if res.Horizon < 0 {
				t.Errorf("%s: negative horizon %g", name, res.Horizon)
			}
			seen := map[int64]bool{}
			for _, r := range res.Recorder.Records() {
				if seen[r.ID] {
					t.Errorf("%s: request %d recorded twice", name, r.ID)
				}
				seen[r.ID] = true
				if r.Dropped {
					continue
				}
				if r.FirstToken < r.ArrivalAt || r.FinishedAt < r.FirstToken {
					t.Errorf("%s: request %d violates causality: arrive %g, first token %g, finish %g",
						name, r.ID, r.ArrivalAt, r.FirstToken, r.FinishedAt)
				}
				if r.FinishedAt > res.Horizon {
					t.Errorf("%s: request %d finished at %g past horizon %g", name, r.ID, r.FinishedAt, res.Horizon)
				}
			}
			if prev := res.Trace.Events(); len(prev) > 1 {
				for i := 1; i < len(prev); i++ {
					if prev[i].At < prev[i-1].At {
						t.Fatalf("%s: trace clock went backwards: event %d at %g after %g",
							name, i, prev[i].At, prev[i-1].At)
					}
				}
			}
		}
	})
}
