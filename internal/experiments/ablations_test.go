package experiments

import (
	"strings"
	"testing"
)

func TestAblationIDsRegistered(t *testing.T) {
	ids := strings.Join(IDs(), " ")
	for _, id := range []string{"ablation-split", "ablation-delta", "ablation-dispatch", "ablation-migration", "ablation-dp"} {
		if !strings.Contains(ids, id) {
			t.Errorf("registry missing %s", id)
		}
	}
}

func TestAblationDeltaMonotoneDemotion(t *testing.T) {
	st := runOK(t, "ablation-delta")
	// Larger Δ can only demote more (or equally many) GPUs.
	col := st.col("AttentionWorkers")
	prev := -1.0
	for i := range st.rows {
		v := st.float(t, i, col)
		if v < prev {
			t.Fatalf("demotion count decreased as Δ grew: row %d has %v after %v", i, v, prev)
		}
		prev = v
	}
	// Δ = 0 demotes nothing on the 70B plan (every GPU helps Cp a little).
	if st.float(t, 0, col) != 0 {
		t.Errorf("Δ=0 should keep every GPU primary, demoted %v", st.rows[0])
	}
}

func TestAblationDispatchLPCompetitive(t *testing.T) {
	st := runOK(t, "ablation-dispatch")
	ratio := st.col("Greedy/LP")
	mean := st.float(t, 0, ratio)
	completed := st.float(t, 2, ratio)
	t.Logf("greedy/LP: mean latency %.3f, completion %.3f", mean, completed)
	// Both policies place head groups sensibly; the LP must not lose
	// badly (it is the paper's choice for optimality, greedy is the
	// cheap approximation). Allow ±25% chaos band.
	if mean < 0.75 || mean > 1.35 {
		t.Errorf("greedy/LP mean latency ratio %.2f outside sanity band", mean)
	}
	if completed < 0.9 {
		t.Errorf("greedy completed only %.0f%% of LP's requests", completed*100)
	}
}

func TestAblationMigrationRuns(t *testing.T) {
	st := runOK(t, "ablation-migration")
	migRow := st.col("Overlapped")
	if st.float(t, 2, migRow) <= 0 {
		t.Error("overlapped run performed no migrations; experiment lost pressure")
	}
}

func TestAblationDPTradeoff(t *testing.T) {
	st := runOK(t, "ablation-dp")
	if len(st.rows) != 3 {
		t.Fatalf("want 3 instance counts, got %d", len(st.rows))
	}
	// More instances duplicate weights: cache must shrink monotonically.
	cache := st.col("Cache(GB)")
	prev := 1e18
	for i, row := range st.rows {
		if row[1] == "infeasible" {
			continue
		}
		v := st.float(t, i, cache)
		if v > prev+1e-9 {
			t.Errorf("cache grew with more instances: %v", st.rows)
		}
		prev = v
	}
}

func TestAblationSplitGranularity(t *testing.T) {
	st := runOK(t, "ablation-split")
	if len(st.rows) != 3 {
		t.Fatalf("want 3 schemes, got %d", len(st.rows))
	}
	traffic := st.col("TrafficPerStep(ms)")
	headTraffic := st.float(t, 0, traffic)
	seqTraffic := st.float(t, 1, traffic)
	if headTraffic >= seqTraffic {
		t.Errorf("head-wise traffic %.3f should undercut seq-wise %.3f", headTraffic, seqTraffic)
	}
}

func TestThroughputHeadline(t *testing.T) {
	st := runOK(t, "throughput")
	if len(st.rows) != 3 {
		t.Fatalf("want 3 datasets, got %d", len(st.rows))
	}
	hgRatio := st.col("Hetis/HG")
	swRatio := st.col("Hetis/SW")
	swWins := 0
	var maxRatio float64
	for i := range st.rows {
		hg := st.float(t, i, hgRatio)
		sw := st.float(t, i, swRatio)
		if hg < 1 {
			t.Errorf("%s: hetis sustains less than hexgen (ratio %.2f)", st.rows[i][0], hg)
		}
		if sw >= 1 {
			swWins++
		}
		if hg > maxRatio {
			maxRatio = hg
		}
		if sw > maxRatio {
			maxRatio = sw
		}
	}
	// Paper: up to 2.25x (vs Splitwise) / 1.33x (vs HexGen) higher rate.
	// Require a clear advantage somewhere and wins against Splitwise on
	// most datasets (HumanEval's prefill-heavy profile can favour
	// disaggregation at the SLO boundary).
	if maxRatio < 1.3 {
		t.Errorf("best sustained-rate advantage %.2fx below 1.3x", maxRatio)
	}
	if swWins < 2 {
		t.Errorf("hetis out-sustains splitwise on only %d of 3 datasets", swWins)
	}
}
