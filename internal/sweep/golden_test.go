package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hetis/internal/engine"
	"hetis/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/grid.golden from the current sweep")

// TestGridGolden pins the pooled outputs byte-for-byte: a dataset × rate
// grid, a scenario grid over every engine, and the scenario suite through
// RunScenariosSink. The scenario goldens run each engine directly, so this is
// what pins the sweep's own engine construction and row assembly.
// Regenerate with:
//
//	go test ./internal/sweep -run TestGridGolden -update
func TestGridGolden(t *testing.T) {
	var out bytes.Buffer
	section := func(title, csv string) {
		out.WriteString("# " + title + "\n")
		out.WriteString(csv)
	}

	tab, err := RunGrid(benchSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	section("grid engine × dataset × rate", tab.CSV())

	tab, err = RunGrid(GridSpec{
		Engines:   engine.Names,
		Scenarios: []string{"steady", "bursty", "multitenant", "closedloop"},
		Duration:  10,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	section("grid engine × scenario", tab.CSV())

	tab, _, err = runNamed(scenario.SuiteNames(), scenario.Options{Quick: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	section("scenario suite, quick", tab.CSV())

	path := filepath.Join("testdata", "grid.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("pooled output drifted from %s (regenerate with -update if intended):\n--- got\n%s--- want\n%s", path, out.Bytes(), want)
	}
}
