// Package lp implements a small dense linear-programming solver: two-phase
// primal simplex with Bland's anti-cycling rule. It stands in for the
// cvxpy/MOSEK stack the paper uses to solve the head-dispatching problem
// (Eq. 7); those instances are tiny (tens of variables), so a dense tableau
// is exact and fast.
//
// Problems are stated as
//
//	minimize    c·x
//	subject to  aᵢ·x (≤ | = | ≥) bᵢ   for each constraint i
//	            x ≥ 0
//
// Solve runs the classic two-phase method from scratch. A recurring
// problem shape can be re-posed in place with SetConstraint, and
// successive solves of one Problem reuse its tableau scratch. A frozen
// copy of the original solver lives in reference_test.go as the
// differential-test oracle.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // ≤
	EQ           // =
	GE           // ≥
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	}
	return "?"
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// ErrNotOptimal is wrapped by Solve when the problem has no finite optimum.
var ErrNotOptimal = errors.New("lp: no finite optimum")

// constraint is one row of the problem.
type constraint struct {
	coeffs []float64
	op     Op
	rhs    float64
}

// Problem accumulates an LP. The zero value is unusable; create with New.
type Problem struct {
	n    int // number of decision variables
	obj  []float64
	cons []constraint

	// Scratch reused across solves of this problem, so re-posing a
	// patched problem allocates nothing once warm. Every buffer is fully
	// overwritten (or zeroed) before use, so reuse is arithmetically
	// invisible; only Result.X is freshly allocated because it escapes
	// to the caller.
	tab        [][]float64  // tableau rows
	normBuf    []constraint // normalized-row view
	flipBuf    []float64    // backing store for sign-flipped rows
	basisBuf   []int        // row -> basic column
	objBuf     []float64    // phase-1 objective
	obj2Buf    []float64    // phase-2 objective
	blockedBuf []bool       // simplex blocked-column scratch
	hotBuf     []int        // simplex hot-row scratch
}

// floatScratch returns a zeroed length-n view of *buf, growing it as
// needed.
func floatScratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// intScratch returns a length-n view of *buf with unspecified contents
// (callers fully assign it), growing as needed.
func intScratch(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// boolScratch returns a zeroed length-n view of *buf, growing as needed.
func boolScratch(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// New creates a problem with n non-negative decision variables and the
// given minimization objective (len(obj) must be n).
func New(n int, obj []float64) *Problem {
	if len(obj) != n {
		panic(fmt.Sprintf("lp: objective has %d coefficients for %d variables", len(obj), n))
	}
	o := make([]float64, n)
	copy(o, obj)
	return &Problem{n: n, obj: o}
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.n }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddConstraint appends coeffs·x op rhs. A copy of coeffs is kept. Sparse
// rows may pass a short slice; missing coefficients are zero.
func (p *Problem) AddConstraint(coeffs []float64, op Op, rhs float64) {
	if len(coeffs) > p.n {
		panic(fmt.Sprintf("lp: constraint has %d coefficients for %d variables", len(coeffs), p.n))
	}
	row := make([]float64, p.n)
	copy(row, coeffs)
	p.cons = append(p.cons, constraint{coeffs: row, op: op, rhs: rhs})
}

// SetConstraint overwrites constraint i with coeffs·x op rhs, like
// AddConstraint but in place. Sparse rows may pass a short slice; missing
// coefficients are zero.
func (p *Problem) SetConstraint(i int, coeffs []float64, op Op, rhs float64) {
	if i < 0 || i >= len(p.cons) {
		panic(fmt.Sprintf("lp: constraint index %d out of range [0,%d)", i, len(p.cons)))
	}
	if len(coeffs) > p.n {
		panic(fmt.Sprintf("lp: constraint has %d coefficients for %d variables", len(coeffs), p.n))
	}
	c := &p.cons[i]
	c.op, c.rhs = op, rhs
	n := copy(c.coeffs, coeffs)
	clear(c.coeffs[n:])
}

// Result is the outcome of Solve.
type Result struct {
	Status    Status
	X         []float64 // optimal point (valid when Status == Optimal)
	Objective float64   // c·x at the optimum
}

const eps = 1e-9

// normalizeRows returns the constraints with rhs sign-normalized to be
// non-negative (flipping coefficients and relation where needed) — the
// canonical form Solve builds its tableau from. The returned slice (and
// the flipped rows backing it) is scratch owned by the Problem, valid
// until the next solve.
func (p *Problem) normalizeRows() []constraint {
	n := p.n
	m := len(p.cons)
	if cap(p.normBuf) < m {
		p.normBuf = make([]constraint, m)
	}
	rows := p.normBuf[:m]
	nFlip := 0
	for _, c := range p.cons {
		if c.rhs < 0 {
			nFlip++
		}
	}
	if cap(p.flipBuf) < nFlip*n {
		p.flipBuf = make([]float64, nFlip*n)
	}
	k := 0
	for i, c := range p.cons {
		rows[i] = c
		if c.rhs < 0 {
			flipped := p.flipBuf[k*n : (k+1)*n : (k+1)*n]
			k++
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
	return rows
}

// slackArtCount returns the auxiliary-column counts of the normalized
// rows: one slack/surplus per inequality, one artificial per >= or = row.
func slackArtCount(rows []constraint) (nSlack, nArt int) {
	for _, c := range rows {
		if c.op != EQ {
			nSlack++
		}
		if c.op != LE {
			nArt++
		}
	}
	return nSlack, nArt
}

// tableauRows returns m zeroed rows of the given width, reusing the
// problem's scratch when the shape matches. Zeroed reuse is bit-identical
// to fresh allocation.
func (p *Problem) tableauRows(m, width int) [][]float64 {
	if len(p.tab) != m || (m > 0 && len(p.tab[0]) != width) {
		p.tab = make([][]float64, m)
		for i := range p.tab {
			p.tab[i] = make([]float64, width)
		}
		return p.tab
	}
	for i := range p.tab {
		clear(p.tab[i])
	}
	return p.tab
}

// Solve runs two-phase simplex and returns the optimum.
func (p *Problem) Solve() (Result, error) {
	m := len(p.cons)
	n := p.n

	// Normalize rows to rhs >= 0.
	rows := p.normalizeRows()

	nSlack, nArt := slackArtCount(rows)
	total := n + nSlack + nArt

	// Build tableau: m rows × (total+1) columns, last column is rhs.
	tab := p.tableauRows(m, total+1)
	basis := intScratch(&p.basisBuf, m)
	slackCol := n
	artCol := n + nSlack
	artStart := artCol
	for i, c := range rows {
		row := tab[i]
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
	}

	if nArt > 0 {
		// Phase 1: minimize the sum of artificial variables.
		phase1 := floatScratch(&p.objBuf, total)
		for j := artStart; j < artStart+nArt; j++ {
			phase1[j] = 1
		}
		status := p.simplex(tab, basis, phase1)
		if status == Unbounded {
			return Result{Status: Infeasible}, fmt.Errorf("%w: phase 1 unbounded (numerical trouble)", ErrNotOptimal)
		}
		// Feasible iff the artificial objective is ~0.
		var artSum float64
		for i, b := range basis {
			if b >= artStart {
				artSum += tab[i][total]
			}
		}
		if artSum > 1e-7 {
			return Result{Status: Infeasible}, fmt.Errorf("%w: infeasible (artificial residual %g)", ErrNotOptimal, artSum)
		}
		// Drive remaining artificials out of the basis where possible.
		for i, b := range basis {
			if b < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; zero it including the artificial column.
				for j := range tab[i] {
					tab[i][j] = 0
				}
			}
		}
	}

	// Phase 2: original objective (artificial columns fixed at zero: mask
	// them so they never re-enter).
	phase2 := floatScratch(&p.obj2Buf, total)
	copy(phase2, p.obj)
	for j := artStart; j < artStart+nArt; j++ {
		phase2[j] = math.Inf(1) // sentinel: blocked column
	}
	status := p.simplex(tab, basis, phase2)
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

// simplex optimizes the tableau in place for objective c (length = number
// of structural columns; +Inf marks blocked columns). Returns Optimal or
// Unbounded. It is a Problem method only to borrow per-problem scratch;
// the arithmetic is pure.
//
// Reduced costs r_j = c_j − c_B·B⁻¹A_j are computed directly from the
// tableau, skipping basic variables with zero cost — exactly what the
// original per-row `if cb != 0` guard did, so the arithmetic (and thus
// every pivot decision) is bit-identical. The hot-loop optimization is
// to precompute the set of nonzero-cost basic rows once per pivot
// instead of rediscovering it for every candidate column: the set is
// tiny (the artificial rows in phase 1, usually a single row in phase
// 2), which turns the entering-column scan from O(columns × rows) into
// O(columns × |hot rows|).
func (p *Problem) simplex(tab [][]float64, basis []int, c []float64) Status {
	m := len(tab)
	if m == 0 {
		return Optimal
	}
	total := len(tab[0]) - 1
	blocked := boolScratch(&p.blockedBuf, len(c))
	for j, cj := range c {
		blocked[j] = math.IsInf(cj, 1)
	}
	// hot lists the basic rows whose basis variable carries nonzero cost,
	// in ascending row order (the accumulation order of the original
	// loop). Rebuilt after every pivot, O(m).
	hot := intScratch(&p.hotBuf, m)[:0]
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
			// With Bland's rule this cannot cycle; this is a hard safety
			// net for pathological numerics.
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
				entering = j // Bland: first improving column
				break
			}
		}
		if entering == -1 {
			return Optimal
		}
		// Ratio test with Bland tie-breaking on the leaving basic variable.
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
		pivot(tab, basis, leaving, entering)
		rebuildHot()
	}
}

// pivot makes column j basic in row i.
func pivot(tab [][]float64, basis []int, i, j int) {
	piv := tab[i][j]
	row := tab[i]
	inv := 1 / piv
	for k := range row {
		row[k] *= inv
	}
	row[j] = 1 // kill rounding
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

// Violation returns the largest relative constraint violation of x
// (including x ≥ 0), each scaled by the constraint's own magnitude. Zero
// means feasible; the differential tests use it as their feasibility
// oracle.
func (p *Problem) Violation(x []float64) float64 {
	worst := 0.0
	for _, xi := range x {
		if -xi > worst {
			worst = -xi
		}
	}
	for _, c := range p.cons {
		var dot, scale float64
		scale = 1 + math.Abs(c.rhs)
		for j, a := range c.coeffs {
			t := a * x[j]
			dot += t
			scale += math.Abs(t)
		}
		var v float64
		switch c.op {
		case LE:
			v = dot - c.rhs
		case GE:
			v = c.rhs - dot
		case EQ:
			v = math.Abs(dot - c.rhs)
		}
		if v /= scale; v > worst {
			worst = v
		}
	}
	return worst
}
