package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"hetis/internal/scenario"
)

// shortDurations shrink every workload to a trace that runs in well under
// a second, so the whole catalog goes through the real runner in tests.
var shortDurations = map[string]float64{
	"hetis-mix":      150,
	"mega-exact":     400,
	"mega-stream":    400,
	"chaos-failover": 120,
	"fleet-giga":     100,
}

func shortWorkload(t *testing.T, name string) workloadDef {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := shortDurations[name]
	if !ok {
		t.Fatalf("no short duration for workload %s", name)
	}
	w.Duration = d
	return w
}

// TestWorkloadsShort runs every workload untraced and traced through
// runRep: both must succeed (conservation and table cross-checks pass) and
// render byte-identical tables with identical event counts, so tracing —
// the streaming timing sink included — does not change the program.
func TestWorkloadsShort(t *testing.T) {
	for _, wd := range workloads {
		t.Run(wd.Name, func(t *testing.T) {
			w := shortWorkload(t, wd.Name)
			spec, err := w.spec(7)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runRep(w, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(w, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Events == 0 || plain.TableSHA == "" {
				t.Fatalf("empty rep: %+v", plain)
			}
			if traced.TableSHA != plain.TableSHA || traced.Events != plain.Events {
				t.Errorf("traced output %s/%d differs from untraced %s/%d",
					traced.TableSHA, traced.Events, plain.TableSHA, plain.Events)
			}
			if plain.Layers != nil || plain.Spans != nil {
				t.Error("untraced rep recorded layers or spans")
			}
			if plain.SetupS <= 0 || plain.RunS <= 0 || plain.ReportS <= 0 || plain.WallS < plain.SetupS+plain.RunS {
				t.Errorf("implausible phase times: %+v", plain)
			}
			for _, name := range []string{"engine.run_s", "metrics.report_s", "workload.trace_s", "sim.events"} {
				if traced.Layers[name] <= 0 {
					t.Errorf("traced %s = %g, want > 0", name, traced.Layers[name])
				}
			}
			if w.Stream && !spec.Sharded() && traced.Layers["metrics.observe_share"] <= 0 {
				t.Error("streaming rep recorded no observe time")
			}
			if spec.Sharded() && (traced.Layers["fleet.speedup_w2"] <= 0 || traced.Layers["fleet.imbalance"] < 1) {
				t.Errorf("fleet layers not measured: %v", traced.Layers)
			}
			if len(traced.Spans) == 0 {
				t.Error("traced rep recorded no spans")
			}
			for _, sp := range traced.Spans {
				if sp.End < sp.Start || sp.Parent >= sp.ID {
					t.Errorf("malformed span %+v", sp)
				}
			}
		})
	}
}

// TestMeasurementChecks drives the parent's output checks and summary
// with canned reps: a rep whose output differs from the first, or from the
// seed-1 pin, fails; the summary reports every end-to-end metric.
func TestMeasurementChecks(t *testing.T) {
	w := workloads[0]
	m := &measurement{w: w, seed: 1}
	good := &repResult{WallS: 1, SetupS: 0.1, RunS: 0.8, Events: 100, TableSHA: "aa",
		RefS: referenceHostSeconds, PeakRSSMiB: 10}
	pin := expectedOutput{TableSHA: "aa", Events: 100}
	if err := m.check(good, pin, true); err != nil {
		t.Fatalf("good rep rejected: %v", err)
	}
	if err := m.check(&repResult{Events: 101, TableSHA: "aa"}, pin, true); err == nil {
		t.Error("rep with a different event count accepted")
	}
	if err := m.check(&repResult{Events: 100, TableSHA: "bb"}, pin, false); err == nil {
		t.Error("rep with a different table accepted")
	}
	other := &measurement{w: w, seed: 1}
	if err := other.check(good, expectedOutput{TableSHA: "cc", Events: 100}, true); err == nil {
		t.Error("rep differing from the seed-1 pin accepted")
	}
	m.seed = 7
	m.ref = nil
	if err := m.check(good, expectedOutput{TableSHA: "cc"}, true); err != nil {
		t.Errorf("pin applied at seed 7: %v", err)
	}

	m.timed = []*repResult{good, good, good}
	m.attempted = 3
	res := &resultFile{Workloads: map[string]*workloadResult{w.Name: m.result()}}
	ok, line := finalLine(res, []workloadDef{w}, false)
	if !ok {
		t.Fatalf("complete result judged incorrect: %s", line)
	}
	var parsed struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Attempted != 3 || parsed.Failed != 0 || len(parsed.Metrics) != len(endToEnd) {
		t.Errorf("final line %s", line)
	}
	if got := parsed.Metrics["events_per_s"]["value"].(float64); math.Abs(got-125) > 1e-9 {
		t.Errorf("events_per_s = %v, want 125", got)
	}
	if ok, _ := finalLine(res, []workloadDef{w}, true); ok {
		t.Error("per-layer line judged complete without traced reps")
	}
}

// TestOnReferenceHost checks the host-speed conversion: on a host that ran
// the reference workload twice as slowly, seconds halve and rates double,
// and other units pass through.
func TestOnReferenceHost(t *testing.T) {
	slow := 2 * referenceHostSeconds
	if got := onReferenceHost("s", 3, slow); got != 1.5 {
		t.Errorf("seconds: got %g, want 1.5", got)
	}
	if got := onReferenceHost("1/s", 3, slow); got != 6 {
		t.Errorf("rate: got %g, want 6", got)
	}
	if got := onReferenceHost("MiB", 3, slow); got != 3 {
		t.Errorf("MiB: got %g, want 3", got)
	}
	if r := referenceSeconds(); r <= 0 || r > 10*referenceHostSeconds {
		t.Errorf("reference workload took %gs; referenceHostSeconds is %gs", r, referenceHostSeconds)
	}
}

// TestSummarizeMatchesPython pins the quartiles to Python's
// statistics.quantiles(values, n=4).
func TestSummarizeMatchesPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want summary
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, summary{Median: 5.5, Q1: 2.75, Q3: 8.25, N: 10}},
		{[]float64{1, 2, 3, 4, 5}, summary{Median: 3, Q1: 1.5, Q3: 4.5, N: 5}},
		{[]float64{3, 1}, summary{Median: 2, Q1: 0.5, Q3: 3.5, N: 2}},
		{[]float64{4}, summary{Median: 4, Q1: 4, Q3: 4, N: 1}},
	}
	for _, c := range cases {
		if got := summarize(c.in); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if s := summarize(nil); !math.IsNaN(s.Median) || s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestAttributeStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "hetis/internal/sim.(*Queue).Push", "hetis/internal/engine.(*vllm).Run"}, "sim"},
		{[]string{"hetis/internal/lp.(*Problem).Solve", "hetis/internal/dispatch.(*Dispatcher).Dispatch"}, "lp"},
		{[]string{"hetis/internal/sweep/pool.Each.func1", "runtime.goexit"}, "fleet"},
		{[]string{"hetis/internal/parallelizer.Plan"}, "engine"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"time.Now", "main.(*timingSink).ObserveBatch", "hetis/internal/engine.x"}, "other"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
	}
	for _, c := range cases {
		if got := attributeStack(c.frames); got != c.want {
			t.Errorf("attributeStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestAttributeProfile decodes a real CPU profile of simulation work: every
// sample lands in a known layer and most of them in the simulator's.
func TestAttributeProfile(t *testing.T) {
	spec, err := shortWorkload(t, "mega-stream").spec(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
		if _, _, err := scenario.RunEngineSink(spec, "vllm", scenario.Options{Stream: true}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	got, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, sim int64
	for layer, n := range got {
		if !slices.Contains(cpuLayers, layer) {
			t.Errorf("unknown layer %q", layer)
		}
		total += n
	}
	for _, l := range []string{"sim", "engine", "perf", "metrics", "workload", "kvcache"} {
		sim += got[l]
	}
	if total < 10 {
		t.Skipf("only %d samples; too few to judge", total)
	}
	if !raceEnabled && sim*2 < total {
		t.Errorf("simulator layers hold %d of %d samples: %v", sim, total, got)
	}
	if _, err := attributeProfile([]byte("not gzip")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestEachFieldRejectsTruncated(t *testing.T) {
	// Field 6 (string_table), length 5, but only two bytes follow.
	if err := eachField([]byte{0x32, 0x05, 'a', 'b'}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestVerdict(t *testing.T) {
	wall, _ := metricByName("wall_s")
	rate, _ := metricByName("events_per_s")
	s := func(q1, med, q3 float64) summary { return summary{Q1: q1, Median: med, Q3: q3, N: 10} }
	cases := []struct {
		d        metricDef
		old, new summary
		want     string
	}{
		{wall, s(0.99, 1, 1.01), s(1.29, 1.3, 1.31), "worse"},
		{wall, s(0.99, 1, 1.01), s(0.79, 0.8, 0.81), "better"},
		{wall, s(0.99, 1, 1.01), s(1.0, 1.02, 1.03), "same"},
		{wall, s(0.7, 1, 1.3), s(0.8, 1.05, 1.4), "unresolved"},
		{rate, s(99, 100, 101), s(69, 70, 71), "worse"},
		{metricDef{Name: "cpu.sim", Unit: "share", Better: "lower"}, s(1, 1, 1), s(2, 2, 2), ""},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %+v, %+v) = %q, want %q", c.d.Name, c.old, c.new, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// catalog and metric tables here.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.Paths, []string{"benchmark"}) || len(doc.Command) < 2 || doc.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalog", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, catalog %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	if !slices.Equal(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n got %v\nwant %v", doc.EndToEnd, endToEnd)
	}
	if !slices.Equal(doc.PerLayer, perLayer) {
		t.Errorf("per_layer\n got %v\nwant %v", doc.PerLayer, perLayer)
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if d.Better != "lower" && d.Better != "higher" || strings.ContainsAny(d.Name, " /") {
			t.Errorf("bad metric definition %+v", d)
		}
	}
}
