package scenario

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func cellFloat(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("cell %d %q: %v", col, row[col], err)
	}
	return v
}

// TestStreamMatchesExact runs the multi-tenant scenario both ways and
// checks the streaming table keeps the exact path's shape and exact
// columns (offered, completed, goodput, attainment — the streaming sink
// counts SLO attainment per record, not approximately), with latency
// columns within the sketch regime.
func TestStreamMatchesExact(t *testing.T) {
	spec, err := ByName("multitenant")
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := RunEngineSink(spec, "hexgen", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := RunEngineSink(spec, "hexgen", Options{Quick: true, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Rows) != len(exact.Rows) {
		t.Fatalf("streaming table has %d rows, exact %d", len(stream.Rows), len(exact.Rows))
	}
	for i := range exact.Rows {
		er, sr := exact.Rows[i], stream.Rows[i]
		// Scenario, Engine, Tenant, Offered, Completed are identities.
		for col := 0; col < 5; col++ {
			if er[col] != sr[col] {
				t.Errorf("row %d col %d: streaming %q, exact %q", i, col, sr[col], er[col])
			}
		}
		// Goodput and Attain are exact counts in both paths.
		for col := 5; col < 7; col++ {
			if er[col] != sr[col] {
				t.Errorf("row %d col %d (exact-count column): streaming %q, exact %q", i, col, sr[col], er[col])
			}
		}
		// Latency columns are sketch estimates; the quick trace has a few
		// hundred completions in aggregate and a few dozen per tenant, so
		// the sparse-order-statistic regime applies (the 1% bound is a
		// large-n property, pinned by the metrics and megascale tests).
		tol := 0.10
		if i > 0 {
			tol = 0.25
		}
		for col := 7; col < 10; col++ {
			e, s := cellFloat(t, er, col), cellFloat(t, sr, col)
			if e > 0 && math.Abs(s-e)/e > tol {
				t.Errorf("row %d col %d: streaming %g vs exact %g", i, col, s, e)
			}
		}
	}
}

// TestRunEngineSinkWindows checks the windowed series comes back only on
// streaming runs and spans the trace contiguously.
func TestRunEngineSinkWindows(t *testing.T) {
	spec, err := ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	rows, windows, err := RunEngineSink(spec, "vllm", Options{Quick: true, Stream: true, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) == 0 {
		t.Fatal("streaming run produced no rows")
	}
	if windows == nil || len(windows.Rows) == 0 {
		t.Fatal("streaming run with Window produced no windows table")
	}
	// The series anchors at the first completion's window and must step
	// contiguously by the window width from there.
	first := cellFloat(t, windows.Rows[0], 0)
	for i, row := range windows.Rows {
		if got := cellFloat(t, row, 0); got != first+float64(2*i) {
			t.Fatalf("window %d starts at %g, want %g", i, got, first+float64(2*i))
		}
	}

	if _, windows, err = RunEngineSink(spec, "vllm", Options{Quick: true}); err != nil {
		t.Fatal(err)
	} else if windows != nil {
		t.Error("exact run must not produce a windows table")
	}
}

// TestPrepareFleetRefusesUnbucketableWindow: PrepareFleet, the one
// scenario run path, refuses a window the windowed series cannot bucket —
// NaN, infinite, negative, or cutting the measurement horizon into more
// than maxWindows windows — naming the window, before any run allocates a
// series. Zero and an ordinary width pass.
func TestPrepareFleetRefusesUnbucketableWindow(t *testing.T) {
	spec, err := ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	horizon := MeasurementHorizon(Prepare(spec, true).Duration)
	for _, tc := range []struct {
		window float64
		want   string // "" for no error
	}{
		{0, ""},
		{2, ""},
		{horizon / (maxWindows / 2), ""},
		{math.NaN(), "window NaN s"},
		{math.Inf(1), "window +Inf s"},
		{math.Inf(-1), "window -Inf s"},
		{-1, "window -1 s"},
		{1e-9, "window 1e-09 s cuts the"},
		{horizon / (2 * maxWindows), fmt.Sprintf("cap of %d windows", maxWindows)},
	} {
		_, err := PrepareFleet(spec, "vllm", Options{Quick: true, Stream: true, Window: tc.window})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("window %g: %v", tc.window, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("window %g: err = %v, want one containing %q", tc.window, err, tc.want)
		}
	}
}

// TestMegascaleRegistration pins the scale scenario's contract: registered,
// heavy (excluded from suite expansions), golden-pinned at a short replay,
// and single-engine.
func TestMegascaleRegistration(t *testing.T) {
	spec, err := ByName("megascale")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Heavy {
		t.Error("megascale must be Heavy")
	}
	if spec.GoldenDuration <= 0 {
		t.Error("megascale must pin a GoldenDuration")
	}
	if got := spec.ForGolden().Duration; got != spec.GoldenDuration {
		t.Errorf("ForGolden duration %g, want %g", got, spec.GoldenDuration)
	}
	// ~1M requests at full scale: mean rate × duration.
	if n := spec.WithDefaults().Traffic.MeanRate() * spec.WithDefaults().Duration; n < 9e5 || n > 1.2e6 {
		t.Errorf("megascale expects ~1e6 requests, spec implies %.0f", n)
	}
	if slices.Contains(SuiteNames(), "megascale") {
		t.Error("SuiteNames must exclude heavy scenarios")
	}
	if !slices.Contains(Names(), "megascale") {
		t.Error("Names must still list heavy scenarios")
	}
	// Heavy without a golden replay must not register.
	bad := spec
	bad.Name = "megascale-bad"
	bad.GoldenDuration = 0
	if err := Register(bad); err == nil {
		t.Error("heavy scenario without GoldenDuration registered")
	}
}
