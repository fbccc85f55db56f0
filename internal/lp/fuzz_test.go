package lp

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSimplexEquivalence is the solver's differential fuzz target: random
// small LPs are solved by the frozen legacy solver (reference_test.go) and by
// Solve — fresh, and again after patching every row in place, on reused
// scratch — and both must agree on status, objective (within 1e-9
// relative), and feasibility of the returned point.
func FuzzSimplexEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), int64(9))
	f.Add(int64(42), uint8(4), uint8(5), int64(17))
	f.Add(int64(7), uint8(3), uint8(2), int64(3))
	f.Add(int64(1234), uint8(5), uint8(6), int64(99))
	f.Add(int64(-8), uint8(1), uint8(1), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, nv, nc uint8, patchSeed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randomMixedProblem(rng, 1+int(nv)%5, 1+int(nc)%6)

		want, wantErr := referenceSolve(p)
		got, gotErr := p.Solve()
		checkAgree(t, "fresh", p, got, gotErr, want, wantErr)

		perturb(p, rand.New(rand.NewSource(patchSeed)))
		want2, wantErr2 := referenceSolve(p)
		got2, gotErr2 := p.Solve()
		checkAgree(t, "patched", p, got2, gotErr2, want2, wantErr2)
	})
}

// checkAgree asserts the differential contract between a solver-under-
// test result and the reference result for the same problem.
func checkAgree(t *testing.T, path string, p *Problem, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	if got.Status != want.Status || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: status %v (err %v), reference %v (err %v)", path, got.Status, gotErr, want.Status, wantErr)
	}
	if got.Status != Optimal {
		return
	}
	tol := 1e-9 * (1 + math.Abs(want.Objective))
	if math.Abs(got.Objective-want.Objective) > tol {
		t.Fatalf("%s: objective %v, reference %v (diff %g > %g)", path, got.Objective, want.Objective,
			math.Abs(got.Objective-want.Objective), tol)
	}
	if v := p.Violation(got.X); v > 1e-6 {
		t.Fatalf("%s: returned point violates constraints by %g", path, v)
	}
	if v := p.Violation(want.X); v > 1e-6 {
		t.Fatalf("%s: reference point violates constraints by %g (oracle bug)", path, v)
	}
}
