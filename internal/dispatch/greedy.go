package dispatch

import (
	"fmt"
	"math"
)

// Policy selects the placement algorithm for new requests.
type Policy int

// Placement policies.
const (
	// PolicyLP solves the Eq. 7 min-max linear program (the paper's
	// dispatcher).
	PolicyLP Policy = iota
	// PolicyGreedy places head groups one at a time on the worker whose
	// resulting f_i is smallest — a longest-processing-time-style
	// heuristic used as the ablation baseline for the LP.
	PolicyGreedy
)

func (p Policy) String() string {
	switch p {
	case PolicyLP:
		return "lp"
	case PolicyGreedy:
		return "greedy"
	}
	return "unknown"
}

// SetPolicy switches the placement algorithm. The default is PolicyLP.
func (d *Dispatcher) SetPolicy(p Policy) { d.policy = p }

// Policy returns the active placement policy.
func (d *Dispatcher) Policy() Policy { return d.policy }

// greedyPlacement assigns the request's KVHeads head groups one group at a
// time to the worker minimizing the resulting f_i, respecting capacity.
func (d *Dispatcher) greedyPlacement(rq NewRequest) ([]int, error) {
	nW := len(d.workers)
	r := d.cfg.GroupRatio()

	// Simulated incremental state.
	h := make([]float64, nW)
	g := make([]float64, nW)
	for i := range h {
		h[i], g[i] = float64(d.h[i]), float64(d.g[i])
	}

	x := make([]int, nW)
	perGroupBytes := d.perHeadTokenBytes * float64(rq.ContextLen) * float64(r)
	for grp := 0; grp < d.cfg.KVHeads; grp++ {
		best := -1
		bestT := math.Inf(1)
		for i := range d.workers {
			if g[i]+perGroupBytes > d.workers[i].CapacityBytes+1e-6 {
				continue
			}
			t := d.fWorkerAt(i, h[i]+float64(r), g[i]+perGroupBytes)
			if t < bestT {
				bestT = t
				best = i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("dispatch: greedy: no capacity for head group of request %d", rq.ID)
		}
		x[best] += r
		h[best] += float64(r)
		g[best] += perGroupBytes
	}
	return x, nil
}
