package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomMixedProblem builds a bounded random LP mixing ≤, = and ≥ rows
// (box constraints keep it from being unbounded), shared by the
// differential tests and the fuzzer.
func randomMixedProblem(rng *rand.Rand, nVars, nCons int) *Problem {
	c := make([]float64, nVars)
	for j := range c {
		c[j] = rng.Float64()*4 - 1
	}
	p := New(nVars, c)
	for i := 0; i < nCons; i++ {
		a := make([]float64, nVars)
		for j := range a {
			a[j] = rng.Float64() * 2
		}
		switch rng.Intn(4) {
		case 0:
			p.AddConstraint(a, GE, rng.Float64()*2)
		case 1:
			p.AddConstraint(a, EQ, rng.Float64()*6+1)
		default:
			p.AddConstraint(a, LE, rng.Float64()*10+1)
		}
	}
	for j := 0; j < nVars; j++ {
		row := make([]float64, nVars)
		row[j] = 1
		p.AddConstraint(row, LE, 50)
	}
	return p
}

// perturb patches every constraint's rhs (and an occasional coefficient)
// by small amounts, modeling the between-solve drift of the dispatch LPs.
func perturb(p *Problem, rng *rand.Rand) {
	for i := 0; i < p.NumConstraints(); i++ {
		c := p.cons[i]
		coeffs := append([]float64(nil), c.coeffs...)
		if rng.Intn(3) == 0 {
			j := rng.Intn(len(coeffs))
			coeffs[j] = math.Abs(coeffs[j] + (rng.Float64()-0.5)*0.1)
		}
		p.SetConstraint(i, coeffs, c.op, c.rhs*(1+(rng.Float64()-0.5)*0.05))
	}
}

// TestSolveMatchesReference pins Solve bit-for-bit against the frozen
// reference solver: identical status, solution, and objective on random
// problems.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		p := randomMixedProblem(rng, 2+rng.Intn(4), 2+rng.Intn(4))
		got, gotErr := p.Solve()
		want, wantErr := referenceSolve(p)
		if got.Status != want.Status || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: status %v/%v want %v/%v", trial, got.Status, gotErr, want.Status, wantErr)
		}
		if got.Status != Optimal {
			continue
		}
		if got.Objective != want.Objective {
			t.Fatalf("trial %d: objective %v != reference %v (must be bit-equal)", trial, got.Objective, want.Objective)
		}
		for j := range want.X {
			if got.X[j] != want.X[j] {
				t.Fatalf("trial %d: x[%d] = %v != reference %v", trial, j, got.X[j], want.X[j])
			}
		}
	}
}

// TestSetConstraintReportsChanges pins the patch telemetry: identical
// rewrites report false, any coefficient/op/rhs change reports true, and
// short rows imply zeros.
func TestSetConstraintReportsChanges(t *testing.T) {
	p := New(3, []float64{1, 1, 1})
	p.AddConstraint([]float64{1, 2, 3}, LE, 4)
	if p.SetConstraint(0, []float64{1, 2, 3}, LE, 4) {
		t.Error("identical rewrite reported a change")
	}
	if !p.SetConstraint(0, []float64{1, 2, 3}, LE, 5) {
		t.Error("rhs change not reported")
	}
	if !p.SetConstraint(0, []float64{1, 2, 3}, GE, 5) {
		t.Error("op change not reported")
	}
	if !p.SetConstraint(0, []float64{1, 2}, GE, 5) {
		t.Error("short row (implicit zero) change not reported")
	}
	if p.SetConstraint(0, []float64{1, 2, 0}, GE, 5) {
		t.Error("explicit zero equals implicit zero but reported a change")
	}
	res, err := p.Solve()
	if err != nil || math.Abs(res.Objective-2.5) > 1e-9 {
		t.Fatalf("patched problem solve = %v, %v (want objective 2.5)", res, err)
	}
}

// TestScratchReuseIsInvisible solves the same problem twice (fresh
// scratch, then reused) and demands bit-identical results.
func TestScratchReuseIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		p := randomMixedProblem(rng, 2+rng.Intn(3), 2+rng.Intn(4))
		a, errA := p.Solve()
		b, errB := p.Solve()
		if (errA == nil) != (errB == nil) || a.Status != b.Status || a.Objective != b.Objective {
			t.Fatalf("trial %d: repeat solve drifted: %v/%v vs %v/%v", trial, a.Status, errA, b.Status, errB)
		}
	}
}
