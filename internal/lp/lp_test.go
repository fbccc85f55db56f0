package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) Result {
	t.Helper()
	res, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v want optimal", res.Status)
	}
	return res
}

func TestSimpleMaximization(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig).
	// As minimization of -3x - 5y; optimum x=2, y=6, obj=-36.
	p := New(2, []float64{-3, -5})
	p.AddConstraint([]float64{1, 0}, LE, 4)
	p.AddConstraint([]float64{0, 2}, LE, 12)
	p.AddConstraint([]float64{3, 2}, LE, 18)
	res := solveOK(t, p)
	if math.Abs(res.X[0]-2) > 1e-6 || math.Abs(res.X[1]-6) > 1e-6 {
		t.Fatalf("x = %v want [2 6]", res.X)
	}
	if math.Abs(res.Objective+36) > 1e-6 {
		t.Fatalf("objective = %g want -36", res.Objective)
	}
}

func TestGEConstraints(t *testing.T) {
	// min x + y s.t. x + 2y >= 4, 3x + y >= 6. Optimum at intersection:
	// x=1.6, y=1.2, obj=2.8.
	p := New(2, []float64{1, 1})
	p.AddConstraint([]float64{1, 2}, GE, 4)
	p.AddConstraint([]float64{3, 1}, GE, 6)
	res := solveOK(t, p)
	if math.Abs(res.Objective-2.8) > 1e-6 {
		t.Fatalf("objective = %g want 2.8 (x=%v)", res.Objective, res.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x <= 6. Optimum x=6, y=4, obj=24.
	p := New(2, []float64{2, 3})
	p.AddConstraint([]float64{1, 1}, EQ, 10)
	p.AddConstraint([]float64{1, 0}, LE, 6)
	res := solveOK(t, p)
	if math.Abs(res.Objective-24) > 1e-6 {
		t.Fatalf("objective = %g want 24 (x=%v)", res.Objective, res.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := New(1, []float64{1})
	p.AddConstraint([]float64{1}, LE, 1)
	p.AddConstraint([]float64{1}, GE, 2)
	res, err := p.Solve()
	if err == nil || res.Status != Infeasible {
		t.Fatalf("want infeasible, got %v err=%v", res.Status, err)
	}
}

func TestUnbounded(t *testing.T) {
	p := New(2, []float64{-1, 0})
	p.AddConstraint([]float64{0, 1}, LE, 5)
	res, err := p.Solve()
	if err == nil || res.Status != Unbounded {
		t.Fatalf("want unbounded, got %v err=%v", res.Status, err)
	}
}

func TestNegativeRHS(t *testing.T) {
	// x - y <= -2 with min x+y: flips internally to y - x >= 2; optimum
	// x=0, y=2.
	p := New(2, []float64{1, 1})
	p.AddConstraint([]float64{1, -1}, LE, -2)
	res := solveOK(t, p)
	if math.Abs(res.Objective-2) > 1e-6 {
		t.Fatalf("objective = %g want 2 (x=%v)", res.Objective, res.X)
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// Beale's classic cycling example (cycles under naive most-negative
	// pivoting; Bland's rule must terminate).
	p := New(4, []float64{-0.75, 150, -0.02, 6})
	p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	res := solveOK(t, p)
	if math.Abs(res.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective = %g want -0.05", res.Objective)
	}
}

func TestMinMaxEpigraph(t *testing.T) {
	// min max(2a, 3b) s.t. a + b = 10 via epigraph variable z:
	// min z, 2a - z <= 0, 3b - z <= 0, a + b = 10.
	// Optimum: 2a = 3b, a+b=10 -> a=6, b=4, z=12.
	p := New(3, []float64{0, 0, 1}) // vars a, b, z
	p.AddConstraint([]float64{2, 0, -1}, LE, 0)
	p.AddConstraint([]float64{0, 3, -1}, LE, 0)
	p.AddConstraint([]float64{1, 1, 0}, EQ, 10)
	res := solveOK(t, p)
	if math.Abs(res.X[2]-12) > 1e-6 {
		t.Fatalf("z = %g want 12 (x=%v)", res.X[2], res.X)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows create a redundant artificial basis row;
	// phase 1 must cope.
	p := New(2, []float64{1, 2})
	p.AddConstraint([]float64{1, 1}, EQ, 4)
	p.AddConstraint([]float64{1, 1}, EQ, 4)
	p.AddConstraint([]float64{2, 2}, EQ, 8)
	res := solveOK(t, p)
	if math.Abs(res.Objective-4) > 1e-6 { // x=4, y=0
		t.Fatalf("objective = %g want 4 (x=%v)", res.Objective, res.X)
	}
}

// bruteForce solves min c·x over {x >= 0, A x <= b} by enumerating all
// vertex candidates (intersections of n active constraints drawn from rows
// of A and the axes) and returns the best feasible objective, or +Inf if
// none found. Only valid when the optimum is attained at a vertex, which
// holds for bounded feasible LPs.
func bruteForce(c []float64, a [][]float64, b []float64) float64 {
	n := len(c)
	m := len(a)
	// Build the full constraint set: A x <= b and -x_j <= 0.
	rows := make([][]float64, 0, m+n)
	rhs := make([]float64, 0, m+n)
	for i := 0; i < m; i++ {
		rows = append(rows, a[i])
		rhs = append(rhs, b[i])
	}
	for j := 0; j < n; j++ {
		r := make([]float64, n)
		r[j] = -1
		rows = append(rows, r)
		rhs = append(rhs, 0)
	}
	best := math.Inf(1)
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(rows, rhs, idx)
			if !ok {
				return
			}
			// Check feasibility of all constraints.
			for i := range rows {
				dot := 0.0
				for j := 0; j < n; j++ {
					dot += rows[i][j] * x[j]
				}
				if dot > rhs[i]+1e-7 {
					return
				}
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				obj += c[j] * x[j]
			}
			if obj < best {
				best = obj
			}
			return
		}
		for i := start; i < len(rows); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

// solveSquare solves the n×n system formed by the selected rows.
func solveSquare(rows [][]float64, rhs []float64, idx []int) ([]float64, bool) {
	n := len(idx)
	mat := make([][]float64, n)
	v := make([]float64, n)
	for i, r := range idx {
		mat[i] = append([]float64(nil), rows[r]...)
		v[i] = rhs[r]
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(mat[r][col]) > math.Abs(mat[piv][col]) {
				piv = r
			}
		}
		if math.Abs(mat[piv][col]) < 1e-9 {
			return nil, false
		}
		mat[col], mat[piv] = mat[piv], mat[col]
		v[col], v[piv] = v[piv], v[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := mat[r][col] / mat[col][col]
			for k := col; k < n; k++ {
				mat[r][k] -= f * mat[col][k]
			}
			v[r] -= f * v[col]
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = v[i] / mat[i][i]
	}
	return x, true
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(2) // 2-3 vars
		m := 2 + rng.Intn(3) // 2-4 constraints
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*4 - 1 // mostly positive to keep bounded
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.Float64() * 2
			}
			b[i] = rng.Float64()*10 + 1
		}
		// Add a box to guarantee boundedness.
		box := make([][]float64, n)
		for j := 0; j < n; j++ {
			box[j] = make([]float64, n)
			box[j][j] = 1
		}
		p := New(n, c)
		for i := range a {
			p.AddConstraint(a[i], LE, b[i])
		}
		allA := append(append([][]float64{}, a...), box...)
		allB := append(append([]float64{}, b...), make([]float64, n)...)
		for j := 0; j < n; j++ {
			p.AddConstraint(box[j], LE, 50)
			allB[m+j] = 50
		}
		res, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForce(c, allA, allB)
		if math.Abs(res.Objective-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("trial %d: simplex %.8f != brute force %.8f", trial, res.Objective, want)
		}
	}
}

func TestSolutionFeasibility(t *testing.T) {
	// Any Optimal result must satisfy its own constraints.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(4)
		p := New(n, randVec(rng, n, -1, 3))
		type row struct {
			a   []float64
			op  Op
			rhs float64
		}
		var saved []row
		for i := 0; i < 2+rng.Intn(4); i++ {
			a := randVec(rng, n, 0, 2)
			rhs := rng.Float64()*8 + 2
			op := LE
			if rng.Intn(4) == 0 {
				op = GE
				rhs = rng.Float64() * 2
			}
			p.AddConstraint(a, op, rhs)
			saved = append(saved, row{a, op, rhs})
		}
		for j := 0; j < n; j++ {
			a := make([]float64, n)
			a[j] = 1
			p.AddConstraint(a, LE, 30)
			saved = append(saved, row{a, LE, 30})
		}
		res, err := p.Solve()
		if err != nil {
			continue // infeasible instances are fine here
		}
		for k, r := range saved {
			dot := 0.0
			for j := 0; j < n; j++ {
				dot += r.a[j] * res.X[j]
			}
			switch r.op {
			case LE:
				if dot > r.rhs+1e-6 {
					t.Fatalf("trial %d: constraint %d violated: %g > %g", trial, k, dot, r.rhs)
				}
			case GE:
				if dot < r.rhs-1e-6 {
					t.Fatalf("trial %d: constraint %d violated: %g < %g", trial, k, dot, r.rhs)
				}
			}
		}
		for j, x := range res.X {
			if x < -1e-7 {
				t.Fatalf("trial %d: x[%d] = %g negative", trial, j, x)
			}
		}
	}
}

func randVec(rng *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + rng.Float64()*(hi-lo)
	}
	return v
}

func TestPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanic("bad objective len", func() { New(2, []float64{1}) })
	assertPanic("too many coeffs", func() {
		p := New(1, []float64{1})
		p.AddConstraint([]float64{1, 2}, LE, 1)
	})
}
