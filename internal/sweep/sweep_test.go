package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetis/internal/metrics"
	"hetis/internal/scenario"
)

// fakeJob returns a job that sleeps and then emits a one-row table naming
// its key, so completion order can be forced to differ from job order.
func fakeJob(key string, sleep time.Duration) Job {
	return Job{Key: key, Run: func() (*metrics.Table, error) {
		time.Sleep(sleep)
		tab := &metrics.Table{Header: []string{"Key"}}
		tab.AddRow(key)
		return tab, nil
	}}
}

func TestRunManyOrdersByJobNotCompletion(t *testing.T) {
	// The first job sleeps longest, so under Jobs>1 the jobs complete in
	// reverse; the keys are neither sorted nor reverse-sorted, so neither
	// a key sort nor completion order can pass for job order.
	jobs := []Job{
		fakeJob("c", 30*time.Millisecond),
		fakeJob("a", 10*time.Millisecond),
		fakeJob("b", 1*time.Millisecond),
	}
	results, err := RunMany(jobs, Options{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, r := range results {
		keys = append(keys, r.Key)
		if r.Table == nil || r.Table.Rows[0][0] != r.Key {
			t.Errorf("result %s carries wrong table %v", r.Key, r.Table)
		}
	}
	if got := strings.Join(keys, ","); got != "c,a,b" {
		t.Fatalf("results ordered %s, want job order c,a,b", got)
	}
}

func TestRunManyPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		fakeJob("a", 0),
		{Key: "bad", Run: func() (*metrics.Table, error) { return nil, boom }},
		fakeJob("z", 0),
	}
	results, err := RunMany(jobs, Options{Jobs: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("RunMany error = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "job bad") {
		t.Errorf("error %q does not name the failing job", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 (siblings of a failed job still run)", len(results))
	}
	if results[1].Key != "bad" || !errors.Is(results[1].Err, boom) {
		t.Errorf("failing job result = %+v", results[1])
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Table == nil {
			t.Errorf("sibling %s damaged by failure: %+v", results[i].Key, results[i])
		}
	}
}

func TestBuildEngineUnknown(t *testing.T) {
	spec := GridSpec{Duration: 1}
	p := Point{Model: "Llama-13B", Dataset: "SG", Rate: 5, Engine: "triton"}
	if _, err := RunPoint(spec, p, ""); err == nil || !strings.Contains(err.Error(), "triton") {
		t.Fatalf("err = %v, want unknown-engine naming triton", err)
	}
}

// acceptance-shaped check: the same grid must render byte-identically no
// matter how many workers raced over it.
func TestRunGridByteIdenticalAcrossJobs(t *testing.T) {
	spec := GridSpec{
		Engines:  []string{"hetis", "splitwise"},
		Datasets: []string{"SG", "HE"},
		Rates:    []float64{2, 4},
		Duration: 5,
	}
	var rendered []string
	for _, jobs := range []int{1, 8} {
		tab, err := RunGrid(spec, Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		rendered = append(rendered, tab.String())
	}
	if rendered[0] != rendered[1] {
		t.Errorf("grid output differs between jobs=1 and jobs=8:\n--- jobs=1\n%s--- jobs=8\n%s", rendered[0], rendered[1])
	}
	if rows := strings.Count(rendered[0], "\n") - 2; rows != 8 {
		t.Errorf("grid rendered %d rows, want 8", rows)
	}
}

func TestRunGridReportsFailingPoint(t *testing.T) {
	spec := GridSpec{Models: []string{"no-such-model"}, Duration: 1}
	_, err := RunGrid(spec, Options{Jobs: 2})
	if err == nil || !strings.Contains(err.Error(), "no-such-model") {
		t.Fatalf("err = %v, want failure naming the bad model", err)
	}
}

func TestParseDims(t *testing.T) {
	spec, err := ParseDims(GridSpec{}, []string{
		"engine=hetis,vllm", "datasets=SG,LB", "rate=2,5,10", "model=Llama-13B", "duration=12", "seed=9",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v", GridSpec{
		Engines: []string{"hetis", "vllm"}, Models: []string{"Llama-13B"},
		Datasets: []string{"SG", "LB"}, Rates: []float64{2, 5, 10},
		Duration: 12, Seed: 9,
	})
	if got := fmt.Sprintf("%v", spec); got != want {
		t.Errorf("ParseDims = %s, want %s", got, want)
	}

	for _, bad := range []string{"engine=warp", "rate=fast", "flux=1", "rate", "engine="} {
		if _, err := ParseDims(GridSpec{}, []string{bad}); err == nil {
			t.Errorf("ParseDims(%q) succeeded, want error", bad)
		}
	}
}

// TestParseDimsRejectsNonPositive pins that a rate or duration that is
// not finite and positive fails at parse time, naming its dimension. The
// Inf rate is only parsed: run, it would synthesize a trace without bound.
func TestParseDimsRejectsNonPositive(t *testing.T) {
	for _, tc := range []struct{ dim, name string }{
		{"rate=Inf", "rate"},
		{"rate=2,+Inf", "rate"},
		{"rate=NaN", "rate"},
		{"rate=0", "rate"},
		{"rate=-1", "rate"},
		{"duration=-5", "duration"},
		{"duration=0", "duration"},
		{"duration=Inf", "duration"},
		{"duration=NaN", "duration"},
	} {
		_, err := ParseDims(GridSpec{}, []string{tc.dim})
		if err == nil || !strings.Contains(err.Error(), "bad "+tc.name) {
			t.Errorf("ParseDims(%q) err = %v, want an error naming the %s", tc.dim, err, tc.name)
		}
	}
	// A spec built without ParseDims is refused before any point runs.
	for _, spec := range []GridSpec{
		{Rates: []float64{math.Inf(1)}},
		{Rates: []float64{2, math.NaN()}},
		{Rates: []float64{0}},
		{Duration: -5},
		{Duration: math.Inf(1)},
	} {
		if _, err := RunGrid(spec, Options{Jobs: 1}); err == nil || !strings.Contains(err.Error(), "finite and positive") {
			t.Errorf("RunGrid(%+v) err = %v, want a bad rate or duration", spec, err)
		}
	}
}

// TestTraceDir checks Options.TraceDir: a grid point writes its trace
// under its job key and keeps its row, and a streaming scenario run, which
// records no trace, fails.
func TestTraceDir(t *testing.T) {
	dir := t.TempDir()
	spec := GridSpec{Engines: []string{"vllm"}, Datasets: []string{"HE"}, Rates: []float64{2}, Duration: 3}
	plain, err := RunGrid(spec, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunGrid(spec, Options{Jobs: 1, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if traced.String() != plain.String() {
		t.Errorf("TraceDir changed the row:\n%s\nwant\n%s", traced, plain)
	}
	b, err := os.ReadFile(filepath.Join(dir, "Llama-13B_HE_2_vllm.jsonl"))
	if err != nil || !bytes.HasPrefix(b, []byte(`{"at":`)) {
		t.Errorf("trace file = %.40q, %v; want JSONL events", b, err)
	}
	if _, _, err := runNamed([]string{"steady"}, scenario.Options{Quick: true, Stream: true}, Options{TraceDir: dir}); err == nil || !strings.Contains(err.Error(), "no event trace") {
		t.Errorf("streaming scenarios with TraceDir: err = %v, want a no-trace error", err)
	}
}

func TestGridScenarioDimension(t *testing.T) {
	spec := GridSpec{
		Engines:   []string{"splitwise", "hexgen"},
		Scenarios: []string{"bursty", "steady"},
		Duration:  5,
	}
	tab, err := RunGrid(spec, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows, want 4:\n%s", len(tab.Rows), tab)
	}
	// Rows follow grid order: scenarios as listed, engines innermost; the
	// scenario column is set and dataset/rate are placeholders.
	wantScen := []string{"bursty", "bursty", "steady", "steady"}
	wantEng := []string{"splitwise", "hexgen", "splitwise", "hexgen"}
	for i, row := range tab.Rows {
		if row[1] != wantScen[i] || row[4] != wantEng[i] {
			t.Errorf("row %d = (%s, %s), want (%s, %s)", i, row[1], row[4], wantScen[i], wantEng[i])
		}
		if row[2] != "-" || row[3] != "-" {
			t.Errorf("row %d dataset/rate = (%s, %s), want placeholders", i, row[2], row[3])
		}
	}
}

func TestGridScenarioExcludesDatasetAndRate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec GridSpec
		want string // substring of the error
	}{
		{"dataset", GridSpec{Scenarios: []string{"steady"}, Datasets: []string{"SG"}}, "excludes dataset"},
		{"rate", GridSpec{Scenarios: []string{"steady"}, Rates: []float64{2}}, "excludes dataset"},
		// A grid point serves the trace on one plain engine, so scenarios
		// whose behaviour lives in chaos, tiers or shards must be refused.
		{"chaos", GridSpec{Scenarios: []string{"steady", "failover"}}, `"failover"`},
		{"tiers", GridSpec{Scenarios: []string{"preempt"}}, `"preempt"`},
		{"shards", GridSpec{Scenarios: []string{"fleet"}}, `"fleet"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunGrid(tc.spec, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want an error containing %s", err, tc.want)
			}
			if tc.want != "excludes dataset" && !strings.Contains(err.Error(), "-scenario") {
				t.Errorf("err = %v, want a pointer to -scenario", err)
			}
		})
	}
}

// TestScenarioPointUsesScenarioCluster: a scenario grid point serves its
// trace on the scenario's cluster, so a model that does not fit there
// fails the point with the engine's build error, as scenario.RunEngine
// does on the same spec.
func TestScenarioPointUsesScenarioCluster(t *testing.T) {
	const name = "grid-cluster-1xT4"
	if _, err := scenario.ByName(name); err != nil {
		// Heavy keeps it out of the suite that "all" expands to.
		if err := scenario.Register(scenario.Spec{Name: name, Cluster: "1xT4", Heavy: true, GoldenDuration: 10, Traffic: scenario.Traffic{Kind: scenario.KindPoisson, Rate: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	spec := GridSpec{Duration: 10}
	for _, eng := range []string{"hexgen", "vllm"} {
		_, err := RunPoint(spec, Point{Model: "Llama-13B", Scenario: name, Engine: eng}, "")
		if err == nil || !strings.Contains(err.Error(), "does not fit") {
			t.Errorf("%s on 1xT4: err = %v, want the engine's does-not-fit error", eng, err)
		}
	}
	if _, err := RunPoint(spec, Point{Model: "Llama-13B", Scenario: "steady", Engine: "hexgen"}, ""); err != nil {
		t.Errorf("steady on the paper cluster: %v", err)
	}
}

func TestParseDimsScenario(t *testing.T) {
	spec, err := ParseDims(GridSpec{}, []string{"scenario=bursty,steady"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Scenarios) != 2 || spec.Scenarios[0] != "bursty" {
		t.Errorf("Scenarios = %v", spec.Scenarios)
	}
	if _, err := ParseDims(GridSpec{}, []string{"scenario=warp"}); err == nil {
		t.Error("unknown scenario should error at parse time")
	}
}

func TestRunScenariosByteIdenticalAcrossJobs(t *testing.T) {
	var rendered []string
	for _, jobs := range []int{1, 8} {
		tab, _, err := runNamed([]string{"all"}, scenario.Options{Quick: true}, Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		rendered = append(rendered, tab.String())
	}
	if rendered[0] != rendered[1] {
		t.Errorf("scenario catalog differs between jobs=1 and jobs=8:\n--- jobs=1\n%s--- jobs=8\n%s", rendered[0], rendered[1])
	}
}

func TestRunScenariosUnknown(t *testing.T) {
	if _, _, err := runNamed([]string{"no-such"}, scenario.Options{Quick: true}, Options{}); err == nil {
		t.Error("unknown scenario should fail fast")
	}
	if _, _, err := runNamed(nil, scenario.Options{Quick: true}, Options{}); err == nil {
		t.Error("empty scenario list should error")
	}
}

// runNamed resolves names with scenario.ByNames, as the facade does, and
// serves them through RunScenariosSink.
func runNamed(names []string, so scenario.Options, opts Options) (*metrics.Table, []ScenarioWindows, error) {
	specs, err := scenario.ByNames(names)
	if err != nil {
		return nil, nil, err
	}
	return RunScenariosSink(specs, 0, so, opts)
}
