package dispatch

import "sort"

// idealTol bounds relaxation.solve's answer relative to the optimum.
const idealTol = 1e-12

// relaxWorker is one worker's line in the §5.3.1 relaxation: each head of
// context length ctx it holds costs s + b·ctx seconds, on top of a fixed
// term that binds the makespan whether or not the worker holds any heads.
type relaxWorker struct {
	idx         int // position in Dispatcher.workers
	s, b, fixed float64
}

// relaxation solves the §5.3.1 ideal relaxation
//
//	min z   s.t.   Σ_j (s_i + b_i·ctx_j)·x_ji ≤ z − fixed_i   for every worker i
//	               Σ_i x_ji = H·count_j                       for every bucket j
//	               x ≥ 0
//
// exactly, without a simplex. (The aggregate capacity row is constant
// under head conservation, so idealAttn checks it once.)
//
// Exchange argument (dispatch.New guarantees s, b ≥ 0): take workers i, k with b_i·s_k ≤ b_k·s_i (i has the
// smaller b/s) and contexts L > S, with c_iL the cost of an L head on i.
// Moving ε heads of L from k to i and ε·c_iL/c_iS heads of S from i to k
// leaves i's time unchanged and changes k's by ε·(c_kS·c_iL/c_iS − c_kL),
// which is ≤ 0 exactly when b_i·s_k ≤ b_k·s_i, given s, b ≥ 0. So some
// optimum gives the longest contexts to the workers with the smallest
// b/s: with workers in that order and heads in descending context, each
// worker holds one contiguous run.
//
// Whether a makespan z is feasible is then one greedy sweep (fits): each
// worker in that order spends its budget z − fixed_i on the longest heads
// left. A worker taking a longer run only leaves its successors a shorter
// suffix of what they covered before, so the sweep fails only when z is
// infeasible. solve bisects z.
type relaxation struct {
	workers []relaxWorker // ascending b/s: the sweep order
	rem     []float64     // sweep scratch: heads left per bucket
}

// newRelaxation tabulates the workers' cost lines with the per-head terms
// of Eq. 3 and Eq. 4.
func newRelaxation(ws []Worker, scatterBytesPerHead, perHeadTokenBytes float64) relaxation {
	rx := relaxation{workers: make([]relaxWorker, len(ws))}
	for i, w := range ws {
		rw := relaxWorker{idx: i, s: w.Attn.A, b: w.Attn.B * perHeadTokenBytes, fixed: w.Attn.C}
		if !w.Primary {
			rw.s += w.Net.Gamma * scatterBytesPerHead
			rw.fixed += w.Net.Beta
		}
		rx.workers[i] = rw
	}
	// Ascending b/s by cross-multiplication, so s = 0 (ratio +Inf) needs no
	// special case; a free worker (s = b = 0) has no ratio and goes first.
	// The sort is stable: equal ratios keep worker order.
	sort.SliceStable(rx.workers, func(x, y int) bool {
		p, q := rx.workers[x], rx.workers[y]
		pFree, qFree := p.s == 0 && p.b == 0, q.s == 0 && q.b == 0
		if pFree || qFree {
			return pFree && !qFree
		}
		return p.b*q.s < q.b*p.s
	})
	return rx
}

// fits reports whether makespan z is feasible, by the greedy sweep over
// buckets (ascending context, as bucketByContext returns them) of heads
// query heads per request. A non-nil zeroed x, bucket-major with one
// entry per worker (x[j·W+i]), receives the sweep's placement.
func (rx *relaxation) fits(z float64, buckets []bucket, heads float64, x []float64) bool {
	if cap(rx.rem) < len(buckets) {
		rx.rem = make([]float64, len(buckets))
	}
	rem := rx.rem[:len(buckets)]
	for j, bk := range buckets {
		rem[j] = heads * float64(bk.count)
	}
	nW := len(rx.workers)
	j := len(buckets) - 1 // the longest bucket
	for _, w := range rx.workers {
		budget := z - w.fixed
		if budget < 0 {
			return false
		}
		for ; j >= 0; j-- {
			cost := w.s + w.b*buckets[j].ctx
			take := rem[j]
			if cost*take > budget {
				take = budget / cost
				rem[j] -= take
				if x != nil {
					x[j*nW+w.idx] = take
				}
				break
			}
			budget -= cost * take
			if x != nil {
				x[j*nW+w.idx] = take
			}
		}
	}
	return j < 0
}

// solve returns the relaxation's optimum to idealTol relative: the
// feasible end of a bisection between max(0, max_i fixed_i) — every
// epigraph row binds z, even a worker's that holds no heads — and the
// best single-worker makespan, which places every head on one worker.
func (rx *relaxation) solve(buckets []bucket, heads float64) float64 {
	lo, hi := 0.0, 0.0
	for k, w := range rx.workers {
		lo = max(lo, w.fixed)
		one := w.fixed
		for _, bk := range buckets {
			one += (w.s + w.b*bk.ctx) * heads * float64(bk.count)
		}
		if k == 0 || one < hi {
			hi = one
		}
	}
	if rx.fits(lo, buckets, heads, nil) {
		return lo
	}
	// The single-worker bound is feasible in exact arithmetic; a sweep
	// rounding its budget differently may still miss it by an ulp.
	hi = max(hi, lo)
	for k := 0; k < 4 && !rx.fits(hi, buckets, heads, nil); k++ {
		hi *= 1 + idealTol
	}
	// Bracket to half the tolerance, so the answer stays within idealTol
	// of a simplex that lands on the optimum give or take its rounding.
	for 2*(hi-lo) > idealTol*hi {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break // float resolution reached
		}
		if rx.fits(mid, buckets, heads, nil) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
