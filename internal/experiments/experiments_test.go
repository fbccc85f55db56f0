package experiments

import (
	"math"
	"strconv"
	"testing"
)

var quick = Options{Quick: true}

func runOK(t *testing.T, id string) *stringsTable {
	t.Helper()
	tab, err := Run(id, quick)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("Run(%s): empty table", id)
	}
	return &stringsTable{header: tab.Header, rows: tab.Rows}
}

// stringsTable helps assertions over the rendered tables.
type stringsTable struct {
	header []string
	rows   [][]string
}

func (st *stringsTable) col(name string) int {
	for i, h := range st.header {
		if h == name {
			return i
		}
	}
	return -1
}

func (st *stringsTable) float(t *testing.T, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(st.rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d)=%q not a float: %v", row, col, st.rows[row][col], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation-delta", "ablation-dispatch", "ablation-dp", "ablation-hetero", "ablation-migration", "ablation-search",
		"ablation-split", "accuracy", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15a",
		"fig15b", "fig16a", "fig16b", "fig2", "fig5", "fig7", "fig8", "fig9", "scenarios", "search", "table1", "throughput"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v want %v", got, want)
		}
	}
	if _, err := Run("fig99", quick); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestTable1Shape(t *testing.T) {
	st := runOK(t, "table1")
	if len(st.rows) != 3 {
		t.Fatalf("table1 has %d rows, want 3", len(st.rows))
	}
	// Decode times must order A100 < 3090 < P100.
	dec := st.col("Time(Decode,s)")
	a, b, p := st.float(t, 0, dec), st.float(t, 1, dec), st.float(t, 2, dec)
	if !(a < b && b < p) {
		t.Fatalf("decode ordering broken: %g %g %g", a, b, p)
	}
}

func TestFig2MLPGapExceedsAttentionGap(t *testing.T) {
	st := runOK(t, "fig2")
	p100 := st.col("P100")
	var mlpMax, attnMax float64
	for i, row := range st.rows {
		v := st.float(t, i, p100)
		if row[1] == "MLP" && v > mlpMax {
			mlpMax = v
		}
		if row[1] == "Attention" && v > attnMax {
			attnMax = v
		}
	}
	t.Logf("fig2: max P100 gap MLP %.1fx, Attention %.1fx", mlpMax, attnMax)
	if mlpMax < 10 {
		t.Errorf("MLP gap %.1fx too small (paper: up to 40x)", mlpMax)
	}
	if attnMax > 6 {
		t.Errorf("attention gap %.1fx too large (paper: <5x)", attnMax)
	}
}

func TestFig5HeadWiseWins(t *testing.T) {
	st := runOK(t, "fig5")
	ratio := st.col("Ratio")
	for i, row := range st.rows {
		// A single worker in part (b) receives ALL heads; full offload
		// degenerates to near-identical volume, so skip that row.
		if row[0] == "(b)" && row[1] == "1" {
			continue
		}
		r := st.float(t, i, ratio)
		if r <= 1 {
			t.Errorf("row %v: head-wise should win, ratio %.2f", row, r)
		}
	}
	// At 20% offload the paper reports ~2.68x; accept 1.5-8x.
	first := st.float(t, 0, ratio)
	if first < 1.5 || first > 8 {
		t.Errorf("20%% offload ratio %.2f outside [1.5,8]", first)
	}
	// Four workers: paper reports up to 3.55x.
	last := st.float(t, len(st.rows)-1, ratio)
	if last < 2 {
		t.Errorf("4-worker ratio %.2f below 2", last)
	}
}

func TestFig7Linearity(t *testing.T) {
	st := runOK(t, "fig7")
	timeCol := st.col("AttnTime(ms)")
	var a, b, c []float64
	for i, row := range st.rows {
		v := st.float(t, i, timeCol)
		switch row[0] {
		case "(a)":
			a = append(a, v)
		case "(b)":
			b = append(b, v)
		case "(c)":
			c = append(c, v)
		}
	}
	// (a): flat within 1%.
	for _, v := range a[1:] {
		if math.Abs(v-a[0])/a[0] > 0.01 {
			t.Errorf("(a) not flat: %v", a)
		}
	}
	// (b), (c): strictly increasing.
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Errorf("(b) not increasing: %v", b)
		}
	}
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			t.Errorf("(c) not increasing: %v", c)
		}
	}
}

func TestFig8HetisWinsAtHighRate(t *testing.T) {
	st := runOK(t, "fig8")
	sw, hg, ht := st.col("Splitwise(s/tok)"), st.col("Hexgen(s/tok)"), st.col("Hetis(s/tok)")
	wins := 0
	for i := range st.rows {
		if st.float(t, i, ht) <= st.float(t, i, hg) && st.float(t, i, ht) <= st.float(t, i, sw) {
			wins++
		}
	}
	if wins*2 < len(st.rows) {
		t.Errorf("hetis wins only %d of %d settings", wins, len(st.rows))
	}
}

func TestFig11HetisLargestCache(t *testing.T) {
	st := runOK(t, "fig11")
	h, x, s := st.col("Hetis(GB)"), st.col("Hexgen(GB)"), st.col("Splitwise(GB)")
	for i, row := range st.rows {
		ht, hx, sw := st.float(t, i, h), st.float(t, i, x), st.float(t, i, s)
		if !(ht > hx && hx > sw) {
			t.Errorf("%v: cache ordering broken: hetis %.0f hexgen %.0f splitwise %.0f", row[:2], ht, hx, sw)
		}
	}
}

func TestFig12HetisBestP95(t *testing.T) {
	st := runOK(t, "fig12")
	hx, sw := st.col("Hexgen"), st.col("Splitwise")
	for i, row := range st.rows {
		// HexGen must lose on every metric (it drags dense modules through
		// low-end GPUs and pays pipeline bubbles).
		if st.float(t, i, hx) < 0.99 {
			t.Errorf("%v: hexgen %.2f beat hetis", row[:2], st.float(t, i, hx))
		}
		// Our Splitwise is stronger than the paper's (its decode side gets
		// two A100s so FP16 Llama-70B fits). At the unsaturated Fig. 12
		// rates it may edge Hetis slightly, but never by a large margin.
		if v := st.float(t, i, sw); v < 0.55 {
			t.Errorf("%v: splitwise %.2f beats hetis beyond the documented band", row[:2], v)
		}
	}
}

func TestFig13ModuleGains(t *testing.T) {
	st := runOK(t, "fig13")
	hx := st.col("Hexgen")
	for i, row := range st.rows {
		if st.float(t, i, hx) < 0.95 {
			t.Errorf("%v: hexgen module latency %.2f should not beat hetis", row[:2], st.float(t, i, hx))
		}
	}
}

func TestFig14SeriesShape(t *testing.T) {
	st := runOK(t, "fig14")
	// The A100 should carry load before the 3090s (light-load locality).
	a100Heads := st.col("A100-heads")
	w0 := st.col("3090a-heads")
	var a100First, remoteFirst float64 = -1, -1
	for i := range st.rows {
		tcol := st.float(t, i, 0)
		if a100First < 0 && st.float(t, i, a100Heads) > 0 {
			a100First = tcol
		}
		if remoteFirst < 0 && st.float(t, i, w0) > 0 {
			remoteFirst = tcol
		}
	}
	if a100First < 0 {
		t.Fatal("A100 never took load")
	}
	if remoteFirst >= 0 && remoteFirst < a100First {
		t.Errorf("3090 took load (t=%.0f) before the A100 (t=%.0f)", remoteFirst, a100First)
	}
}

func TestFig15aRedispatchHelps(t *testing.T) {
	st := runOK(t, "fig15a")
	ratio := st.col("LIFO/Hetis")
	hetisCol := st.col("Hetis")
	lifoCol := st.col("LIFO")
	completedRatio := st.float(t, 2, ratio)
	hetisEvict := st.float(t, 3, hetisCol)
	lifoEvict := st.float(t, 3, lifoCol)
	migrations := st.float(t, 4, hetisCol)
	t.Logf("fig15a: completed ratio %.2f, evictions hetis %.0f vs lifo %.0f, migrations %.0f",
		completedRatio, hetisEvict, lifoEvict, migrations)
	// The paper reports 1.06x mean / 1.14x P95 latency degradation under
	// plain LIFO; in the simulator the device-oblivious policy degrades
	// further (about 1.2x mean, 1.3x P95). The invariant either way: Hetis
	// serves at least as many requests with far fewer evictions.
	if completedRatio > 1.001 {
		t.Errorf("plain LIFO completed more requests (ratio %.2f)", completedRatio)
	}
	if lifoEvict > 0 && hetisEvict >= lifoEvict {
		t.Errorf("re-dispatching should cut evictions: hetis %.0f vs lifo %.0f", hetisEvict, lifoEvict)
	}
	if migrations == 0 {
		t.Error("no re-dispatch migrations fired; the experiment lost its pressure")
	}
}

func TestFig15bOverheads(t *testing.T) {
	st := runOK(t, "fig15b")
	hetis := st.col("Hetis(norm)")
	store := st.float(t, 0, hetis)
	fetch := st.float(t, 1, hetis)
	if store <= 1.0 || store > 1.3 {
		t.Errorf("store overhead %.2f outside (1.0,1.3]", store)
	}
	if fetch >= 1.0 || fetch < 0.5 {
		t.Errorf("fetch ratio %.2f outside [0.5,1.0)", fetch)
	}
}

func TestFig16aDefaultNearOptimal(t *testing.T) {
	st := runOK(t, "fig16a")
	// Θ=0.5 row must be 1.0 by construction and no Θ should improve on it
	// by more than ~10%.
	for _, ds := range []string{"SG", "HE", "LB"} {
		col := st.col(ds)
		for i := range st.rows {
			v := st.float(t, i, col)
			if v < 0.85 {
				t.Errorf("%s: Θ=%s beats default by %.0f%%", ds, st.rows[i][0], (1-v)*100)
			}
		}
	}
}

func TestFig16bBoundedDegradation(t *testing.T) {
	st := runOK(t, "fig16b")
	// Paper: ≤6.9% degradation at ±20%. Allow 15% in the simulator.
	for i, row := range st.rows {
		for _, param := range []string{"a", "b", "c", "gamma", "beta"} {
			v := st.float(t, i, st.col(param))
			if v > 1.15 {
				t.Errorf("error %s%%: parameter %s degrades latency by %.0f%%", row[0], param, (v-1)*100)
			}
		}
	}
}

func TestSearchOverheadFast(t *testing.T) {
	st := runOK(t, "search")
	if len(st.rows) != 2 {
		t.Fatalf("want 2 clusters, got %d", len(st.rows))
	}
	configs := st.col("Configs")
	for i, row := range st.rows {
		if len(row) != 3 {
			t.Errorf("row %v: want Cluster, GPUs and Configs only (no wall-clock column)", row)
		}
		if st.float(t, i, configs) < 1 {
			t.Errorf("cluster %s: search costed no configuration", row[0])
		}
	}
}

func TestAccuracyMatchesPaperBand(t *testing.T) {
	st := runOK(t, "accuracy")
	attn := st.col("AttnAccuracy(%)")
	net := st.col("NetAccuracy(%)")
	for i := range st.rows {
		if st.float(t, i, attn) < 90 {
			t.Errorf("device %s: attention accuracy %.1f%% below 90%%", st.rows[i][0], st.float(t, i, attn))
		}
		if st.float(t, i, net) < 92 {
			t.Errorf("device %s: network accuracy %.1f%% below 92%%", st.rows[i][0], st.float(t, i, net))
		}
	}
}

func TestFig9And10Run(t *testing.T) {
	for _, id := range []string{"fig9", "fig10"} {
		st := runOK(t, id)
		ht := st.col("Hetis(s/tok)")
		for i := range st.rows {
			if v := st.float(t, i, ht); v <= 0 {
				t.Errorf("%s row %d: non-positive latency %g", id, i, v)
			}
		}
	}
}
