package sweep

import (
	"math"
	"strconv"
	"testing"

	"hetis/internal/scenario"
)

// TestGridStreamMatchesExact pins the snapshot-based grid row contract:
// streaming keeps every count-derived column identical to the exact sink
// (goodput and attainment are counted per record, not sketched) and the
// latency columns within the sketch regime.
func TestGridStreamMatchesExact(t *testing.T) {
	base := GridSpec{Engines: []string{"hexgen"}, Quick: true}
	exact, err := RunGrid(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamSpec := base
	streamSpec.Stream = true
	stream, err := RunGrid(streamSpec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Rows) != 1 || len(stream.Rows) != 1 {
		t.Fatalf("want 1 row each, got %d and %d", len(exact.Rows), len(stream.Rows))
	}
	er, sr := exact.Rows[0], stream.Rows[0]
	// Model..Engine identities plus Requests/Completed/Throughput/
	// Goodput/Attain must match byte for byte.
	for col := 0; col < 10; col++ {
		if er[col] != sr[col] {
			t.Errorf("col %d (%s): streaming %q, exact %q", col, GridHeader[col], sr[col], er[col])
		}
	}
	for col := 10; col < 13; col++ {
		e, _ := strconv.ParseFloat(er[col], 64)
		s, _ := strconv.ParseFloat(sr[col], 64)
		if e > 0 && math.Abs(s-e)/e > 0.10 {
			t.Errorf("col %d (%s): streaming %g vs exact %g", col, GridHeader[col], s, e)
		}
	}
}

// TestRunScenariosSinkWindows checks the pooled runner returns one window
// table per (scenario, engine) pair in deterministic pair order for any
// job count.
func TestRunScenariosSinkWindows(t *testing.T) {
	so := scenario.Options{Quick: true, Stream: true, Window: 5}
	tab1, wins1, err := runNamed([]string{"steady"}, so, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab4, wins4, err := runNamed([]string{"steady"}, so, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tab1.CSV() != tab4.CSV() {
		t.Error("streaming scenario table depends on the job count")
	}
	if len(wins1) != 3 || len(wins4) != 3 {
		t.Fatalf("want one windows table per engine (3), got %d and %d", len(wins1), len(wins4))
	}
	for i := range wins1 {
		if wins1[i].Scenario != "steady" || wins1[i].Engine != wins4[i].Engine {
			t.Errorf("windows %d out of order: %+v vs %+v", i, wins1[i], wins4[i])
		}
		if wins1[i].Table.CSV() != wins4[i].Table.CSV() {
			t.Errorf("windows table %d depends on the job count", i)
		}
		if len(wins1[i].Table.Rows) == 0 {
			t.Errorf("windows table %d is empty", i)
		}
	}

	// Without a window the runner returns rows only.
	_, wins, err := runNamed([]string{"steady"}, scenario.Options{Quick: true, Stream: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wins != nil {
		t.Error("window=0 must not collect window tables")
	}
}

// TestRunScenariosAllExcludesHeavy keeps "all" a suite-sized expansion.
func TestRunScenariosAllExcludesHeavy(t *testing.T) {
	tab, _, err := runNamed([]string{"all"}, scenario.Options{Quick: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[0] == "megascale" {
			t.Fatal("runNamed(all) ran the heavy megascale scenario")
		}
	}
}
