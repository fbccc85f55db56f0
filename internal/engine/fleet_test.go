package engine

import (
	"testing"

	"hetis/internal/sim"
	"hetis/internal/workload"
)

// fakeReplica is the smallest replica a replicaSet can drive: an intake
// queue, a count of kicks, and whatever requests evacuate should hand back.
type fakeReplica struct {
	q           *waitQueue
	kicks       int
	evacuations int
	batch       []*request
}

func (f *fakeReplica) load() int           { return f.q.len() + len(f.batch) }
func (f *fakeReplica) held() int           { return f.load() }
func (f *fakeReplica) intake() *waitQueue  { return f.q }
func (f *fakeReplica) kick(*sim.Simulator) { f.kicks++ }
func (f *fakeReplica) evacuate(*sim.Simulator) ([]*request, map[int64]bool) {
	f.evacuations++
	v := f.batch
	f.batch = nil
	return v, nil
}

func queued(id int64) *request { return &request{wl: workload.Request{ID: id}} }

// fakeSet provisions one active fake replica per depth, intake i holding
// depths[i] requests (IDs numbered from 100·i).
func fakeSet(depths ...int) *replicaSet[*fakeReplica] {
	f := &replicaSet[*fakeReplica]{fleetCore: fleetCore{res: &Result{}}}
	_ = f.provision(len(depths), func(i int) (*fakeReplica, error) { // the build never fails

		rt := &fakeReplica{q: newWaitQueue(false)}
		for k := 0; k < depths[i]; k++ {
			rt.q.push(queued(int64(100*i + k)))
		}
		return rt, nil
	})
	return f
}

// TestReplicaSetRules pins the set's guards and its hand-off rules on a
// fake runtime, independent of any engine's scheduling.
func TestReplicaSetRules(t *testing.T) {
	s := sim.New()

	t.Run("kill guards", func(t *testing.T) {
		f := fakeSet(1, 1)
		f.state[1] = replicaParked
		f.kill(s, 2, true) // out of range
		f.kill(s, 1, true) // not active
		for i, rt := range f.replicas {
			if rt.evacuations != 0 {
				t.Errorf("replica %d evacuated by a no-op kill", i)
			}
		}
		if f.state[0] != replicaActive || f.state[1] != replicaParked {
			t.Errorf("no-op kills changed states to %v", f.state)
		}
	})

	t.Run("kill re-routes victims oldest first, then the intake", func(t *testing.T) {
		f := fakeSet(1, 0)
		for _, seq := range []int64{3, 1, 2} {
			r := queued(seq)
			r.seq = seq
			f.replicas[0].batch = append(f.replicas[0].batch, r)
		}
		f.kill(s, 0, true) // nothing resident: every victim loses its KV
		if f.state[0] != replicaFailed {
			t.Fatalf("killed replica is %v, want failed", f.state[0])
		}
		var got []int64
		for q := f.replicas[1].q; q.len() > 0; {
			got = append(got, q.pop().wl.ID)
		}
		if want := []int64{1, 2, 3, 0}; len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 0 {
			t.Errorf("survivor intake = %v, want %v", got, want)
		}
		if f.res.Evictions != 3 {
			t.Errorf("Evictions = %d, want 3 lost victims", f.res.Evictions)
		}
	})

	t.Run("revive guards", func(t *testing.T) {
		f := fakeSet(0, 0)
		f.state[1] = replicaParked
		f.parked.push(queued(1))
		f.revive(s, 0) // active, not failed
		f.revive(s, 1) // parked, not failed
		f.revive(s, 2) // out of range
		if f.state[0] != replicaActive || f.state[1] != replicaParked {
			t.Errorf("no-op revives changed states to %v", f.state)
		}
		if f.parked.len() != 1 || f.replicas[0].kicks+f.replicas[1].kicks != 0 {
			t.Error("a no-op revive handed out the parked backlog")
		}
	})

	t.Run("scale limits", func(t *testing.T) {
		f := fakeSet(0, 0)
		f.state[1] = replicaFailed
		if f.scaleDown(s) {
			t.Error("scaleDown drained the last active replica")
		}
		if f.scaleUp(s) {
			t.Error("scaleUp succeeded with no parked replica")
		}
		if f.activeCount() != 1 {
			t.Errorf("activeCount = %d, want 1", f.activeCount())
		}
	})

	t.Run("activate takes the park, then steals to balance", func(t *testing.T) {
		f := fakeSet(9, 4, 0)
		f.state[2] = replicaParked
		for id := int64(1); id <= 3; id++ {
			f.parked.push(queued(id))
		}
		if !f.scaleUp(s) {
			t.Fatal("scaleUp found no parked replica")
		}
		if f.state[2] != replicaActive || f.parked.len() != 0 {
			t.Fatalf("scaleUp left state %v with %d parked", f.state, f.parked.len())
		}
		// The park's 3 arrive first; then replica 0 (the fullest donor)
		// gives from its head until it holds at most one more: 9/3 → 6/6.
		var got []int64
		for q := f.replicas[2].q; q.len() > 0; {
			got = append(got, q.pop().wl.ID)
		}
		want := []int64{1, 2, 3, 0, 1, 2}
		if len(got) != len(want) {
			t.Fatalf("newcomer intake = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("newcomer intake = %v, want %v", got, want)
			}
		}
		if n0, n1 := f.replicas[0].q.len(), f.replicas[1].q.len(); n0 != 6 || n1 != 4 {
			t.Errorf("donors hold %d and %d, want 6 and 4", n0, n1)
		}
		if f.replicas[2].kicks != 1 {
			t.Errorf("newcomer kicked %d times, want 1", f.replicas[2].kicks)
		}
	})
}

// TestKillLosesHauledIntake pins the intake drain of a killed replica: a
// hauled request that already landed in the intake (where static engines
// queue their landings) lost its KV with the replica, so it re-routes as
// a lost victim — eviction counted, hauled cleared — instead of keeping a
// one-token re-prefill it can no longer claim.
func TestKillLosesHauledIntake(t *testing.T) {
	s := sim.New()
	f := fakeSet(0, 0)
	hauled := queued(7)
	hauled.hauled = true
	f.replicas[0].q.push(hauled)
	f.replicas[0].q.push(queued(8))
	f.kill(s, 0, true)
	q := f.replicas[1].q
	if q.len() != 2 {
		t.Fatalf("survivor intake holds %d requests, want 2", q.len())
	}
	if r := q.pop(); r != hauled || r.hauled {
		t.Errorf("first re-routed request is %d (hauled=%v), want 7 with hauled cleared", r.wl.ID, r.hauled)
	}
	if f.res.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1 (the hauled request's lost KV)", f.res.Evictions)
	}
}
