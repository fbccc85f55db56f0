package dispatch

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/lp"
	"hetis/internal/model"
	"hetis/internal/profile"
)

// randomRelaxation builds a dispatcher over 1–6 random heterogeneous
// workers (primary and not, with zero and tiny slopes mixed in) and 1–24
// context buckets in bucketByContext's ascending order. The capacities
// split the buckets' KV demand with a random margin: a 20% shortfall
// (infeasible), a 0.1% surplus (tight), or double.
func randomRelaxation(t testing.TB, rng *rand.Rand) (d *Dispatcher, buckets []bucket, feasible bool) {
	cfg := model.Llama13B
	slope := func(typical float64) float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return typical * 1e-3
		default:
			return typical * (0.2 + 5*rng.Float64())
		}
	}
	buckets = make([]bucket, 1+rng.Intn(idealBuckets))
	var ctx, tokens float64
	for j := range buckets {
		ctx += 1 + 4000*rng.Float64()*rng.Float64()
		buckets[j] = bucket{ctx: ctx, count: 1 + rng.Intn(16)}
		tokens += ctx * float64(buckets[j].count)
	}
	perHeadTokenBytes := float64(cfg.KVBytesPerTokenHeadGroup()) / float64(cfg.GroupRatio())
	demand := tokens * float64(cfg.Heads) * perHeadTokenBytes
	margin := []float64{0.8, 1.001, 2}[rng.Intn(3)]
	ws := make([]Worker, 1+rng.Intn(6))
	for i := range ws {
		ws[i] = Worker{
			ID:            hardware.DeviceID(i),
			Attn:          profile.AttnModel{A: slope(40e-9), B: slope(1.0 / 1000e9), C: slope(30e-6)},
			Primary:       i == 0 || rng.Intn(3) == 0,
			CapacityBytes: demand * margin / float64(len(ws)),
		}
		if !ws[i].Primary {
			ws[i].Net = profile.NetModel{Gamma: slope(1.0 / 11e9), Beta: slope(30e-6)}
		}
	}
	d, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	return d, buckets, margin > 1
}

// oracleUnit states the simplex oracle's times in microseconds.
const oracleUnit = 1e6

// oracleIdeal states the relaxation as an LP in microseconds, for the
// simplex oracle. In seconds the simplex's absolute 1e-9
// entering tolerance meets reduced costs around 1e-12 and can stop a few
// tenths of a percent above the optimum on random instances; in
// microseconds it agrees with the exact solver to about 1e-10. The
// aggregate capacity row is left out: under head conservation it is a
// constant, which the generator already decided.
func oracleIdeal(d *Dispatcher, buckets []bucket) *lp.Problem {
	nW := len(d.workers)
	nVars := len(buckets)*nW + 1
	obj := make([]float64, nVars)
	obj[nVars-1] = 1 // min z
	prob := lp.New(nVars, obj)
	row := make([]float64, nVars)
	for i, w := range d.workers {
		clear(row)
		s, fixed := w.Attn.A, w.Attn.C
		if !w.Primary {
			s += w.Net.Gamma * d.scatterBytesPerHead
			fixed += w.Net.Beta
		}
		for j, b := range buckets {
			row[j*nW+i] = oracleUnit * (s + w.Attn.B*d.perHeadTokenBytes*b.ctx)
		}
		row[nVars-1] = -1
		prob.AddConstraint(row, lp.LE, -oracleUnit*fixed)
	}
	for j, b := range buckets {
		clear(row)
		for i := 0; i < nW; i++ {
			row[j*nW+i] = 1
		}
		prob.AddConstraint(row, lp.EQ, float64(d.cfg.Heads)*float64(b.count))
	}
	return prob
}

// checkIdealAgainstSimplex is the differential contract between the exact
// relaxation solver and the simplex oracle: the exact solver rejects
// exactly the over-capacity instances, its point (z in the oracle's
// microseconds) is feasible for the oracle's LP, and its optimum is never above the oracle's (beyond
// 1e-12) nor below it by more than 1e-6.
func checkIdealAgainstSimplex(t *testing.T, d *Dispatcher, buckets []bucket, feasible bool) {
	t.Helper()
	z, err := d.idealAttn(buckets)
	if (err == nil) != feasible {
		t.Fatalf("feasible instance = %v, exact solver error = %v", feasible, err)
	}
	if err != nil {
		return
	}
	x := make([]float64, len(buckets)*len(d.workers)+1)
	if !d.relax.fits(z, buckets, float64(d.cfg.Heads), x) {
		t.Fatalf("exact optimum %v fails its own sweep", z)
	}
	x[len(x)-1] = z * oracleUnit
	oracle := oracleIdeal(d, buckets)
	if v := oracle.Violation(x); v > 1e-9 {
		t.Fatalf("exact point violates the LP by %g", v)
	}
	res, err := oracle.Solve()
	if err != nil {
		t.Fatal(err)
	}
	zs := res.X[len(res.X)-1] / oracleUnit
	if z > zs*(1+1e-12) {
		t.Fatalf("exact optimum %v above the simplex's %v", z, zs)
	}
	if z < zs*(1-1e-6) {
		t.Fatalf("exact optimum %v more than 1e-6 below the simplex's %v", z, zs)
	}
}

// TestIdealExactVsSimplex runs the differential contract over random
// heterogeneous relaxations.
func TestIdealExactVsSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		d, buckets, feasible := randomRelaxation(t, rng)
		checkIdealAgainstSimplex(t, d, buckets, feasible)
	}
}

// FuzzIdealRelaxation fuzzes the same contract over generator seeds.
func FuzzIdealRelaxation(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		d, buckets, feasible := randomRelaxation(t, rand.New(rand.NewSource(seed)))
		checkIdealAgainstSimplex(t, d, buckets, feasible)
	})
}

// TestNewRejectsNegativeSlope pins the slope check the exact relaxation
// and its lower bound rely on: a negative or NaN Attn.A, Attn.B or
// Net.Gamma fails New with an error naming the worker.
func TestNewRejectsNegativeSlope(t *testing.T) {
	for _, set := range []func(w *Worker){
		func(w *Worker) { w.Attn.A = -1e-9 },
		func(w *Worker) { w.Attn.B = -1e-13 },
		func(w *Worker) { w.Net.Gamma = -1e-12 },
		func(w *Worker) { w.Attn.B = math.NaN() },
	} {
		ws := testWorkers(1e12, 1e12)
		set(&ws[1])
		_, err := New(model.Llama13B, ws)
		if err == nil || !strings.Contains(err.Error(), "worker 1 ") {
			t.Errorf("%+v: New error %v, want one naming worker 1", ws[1], err)
		}
	}
}

// TestRelaxationSweepOrder pins the exchange argument's order: a free
// worker first, then ascending b/s, with s = 0 (ratio +Inf) last.
func TestRelaxationSweepOrder(t *testing.T) {
	ws := []Worker{
		{Attn: profile.AttnModel{B: 1e-12}, Primary: true},          // b/s = +Inf
		{Attn: profile.AttnModel{A: 1e-8, B: 1e-12}, Primary: true}, // mid
		{Attn: profile.AttnModel{A: 1e-8}, Primary: true},           // b/s = 0
		{Primary: true}, // free
	}
	rx := newRelaxation(ws, 0, 1)
	var got []int
	for _, w := range rx.workers {
		got = append(got, w.idx)
	}
	if want := []int{3, 2, 1, 0}; len(got) != 4 || got[0] != 3 || got[1] != 2 || got[2] != 1 || got[3] != 0 {
		t.Errorf("sweep order %v, want %v", got, want)
	}
}
