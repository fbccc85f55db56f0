package lp

import (
	"fmt"
	"math"
)

// This file is a frozen copy of the dense two-phase simplex as it stood
// before its scratch-reuse and hot-row optimizations. It exists purely as
// the oracle for differential tests (TestSolveMatchesReference and
// FuzzSimplexEquivalence): the production Solve may be optimized further,
// but it must keep agreeing with this implementation on status,
// objective, and feasibility. Do not optimize this file.

// referenceSolve runs the frozen two-phase simplex and returns the
// optimum.
func referenceSolve(p *Problem) (Result, error) {
	m := len(p.cons)
	n := p.n

	rows := make([]constraint, m)
	for i, c := range p.cons {
		rows[i] = c
		if c.rhs < 0 {
			flipped := make([]float64, n)
			for j, v := range c.coeffs {
				flipped[j] = -v
			}
			var op Op
			switch c.op {
			case LE:
				op = GE
			case GE:
				op = LE
			default:
				op = EQ
			}
			rows[i] = constraint{coeffs: flipped, op: op, rhs: -c.rhs}
		}
	}

	nSlack := 0
	nArt := 0
	for _, c := range rows {
		if c.op != EQ {
			nSlack++
		}
		if c.op != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt

	tab := make([][]float64, m)
	basis := make([]int, m)
	slackCol := n
	artCol := n + nSlack
	artStart := artCol
	for i, c := range rows {
		row := make([]float64, total+1)
		copy(row, c.coeffs)
		row[total] = c.rhs
		switch c.op {
		case LE:
			row[slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		}
		tab[i] = row
	}

	if nArt > 0 {
		phase1 := make([]float64, total)
		for j := artStart; j < artStart+nArt; j++ {
			phase1[j] = 1
		}
		status := referenceSimplex(tab, basis, phase1)
		if status == Unbounded {
			return Result{Status: Infeasible}, fmt.Errorf("%w: phase 1 unbounded (numerical trouble)", ErrNotOptimal)
		}
		var artSum float64
		for i, b := range basis {
			if b >= artStart {
				artSum += tab[i][total]
			}
		}
		if artSum > 1e-7 {
			return Result{Status: Infeasible}, fmt.Errorf("%w: infeasible (artificial residual %g)", ErrNotOptimal, artSum)
		}
		for i, b := range basis {
			if b < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(tab[i][j]) > eps {
					referencePivot(tab, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				for j := range tab[i] {
					tab[i][j] = 0
				}
			}
		}
	}

	phase2 := make([]float64, total)
	copy(phase2, p.obj)
	for j := artStart; j < artStart+nArt; j++ {
		phase2[j] = math.Inf(1)
	}
	status := referenceSimplex(tab, basis, phase2)
	if status == Unbounded {
		return Result{Status: Unbounded}, fmt.Errorf("%w: unbounded", ErrNotOptimal)
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = tab[i][total]
		}
	}
	var obj float64
	for j := 0; j < n; j++ {
		obj += p.obj[j] * x[j]
	}
	return Result{Status: Optimal, X: x, Objective: obj}, nil
}

// referenceSimplex is the frozen tableau optimizer (Bland's rule,
// hot-row reduced-cost pricing).
func referenceSimplex(tab [][]float64, basis []int, c []float64) Status {
	m := len(tab)
	if m == 0 {
		return Optimal
	}
	total := len(tab[0]) - 1
	blocked := make([]bool, len(c))
	for j, cj := range c {
		blocked[j] = math.IsInf(cj, 1)
	}
	hot := make([]int, 0, m)
	rebuildHot := func() {
		hot = hot[:0]
		for i, b := range basis {
			if b < len(c) && !blocked[b] && c[b] != 0 {
				hot = append(hot, i)
			}
		}
	}
	rebuildHot()
	for iter := 0; ; iter++ {
		if iter > 200000 {
			return Optimal
		}
		entering := -1
		for j := 0; j < total; j++ {
			if blocked[j] {
				continue
			}
			r := c[j]
			for _, i := range hot {
				r -= c[basis[i]] * tab[i][j]
			}
			if r < -eps {
				entering = j
				break
			}
		}
		if entering == -1 {
			return Optimal
		}
		leaving := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][entering]
			if a > eps {
				ratio := tab[i][total] / a
				if ratio < best-eps || (ratio < best+eps && (leaving == -1 || basis[i] < basis[leaving])) {
					best = ratio
					leaving = i
				}
			}
		}
		if leaving == -1 {
			return Unbounded
		}
		referencePivot(tab, basis, leaving, entering)
		rebuildHot()
	}
}

// referencePivot is the frozen pivot kernel.
func referencePivot(tab [][]float64, basis []int, i, j int) {
	piv := tab[i][j]
	row := tab[i]
	inv := 1 / piv
	for k := range row {
		row[k] *= inv
	}
	row[j] = 1
	for r := range tab {
		if r == i {
			continue
		}
		f := tab[r][j]
		if f == 0 {
			continue
		}
		other := tab[r]
		for k := range other {
			other[k] -= f * row[k]
		}
		other[j] = 0
	}
	basis[i] = j
}
