package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out, io.Discard)
	return out.String(), err
}

func TestListShowsExperimentsAndScenarios(t *testing.T) {
	out, err := runBench(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(out, "\n"); first != "available experiments:" {
		t.Errorf("first line = %q", first)
	}
	for _, want := range []string{"  fig8\n", "  scenarios\n", "available scenarios:", "  bursty\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestModeExclusivity(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-exp", "fig8", "-grid", "rate=2"},
		{"-exp", "fig8", "-scenario", "steady"},
		{"-scenario", "steady", "-grid", "rate=2"},
	} {
		if _, err := runBench(t, args...); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) err = %v, want errUsage", args, err)
		}
	}
	if _, err := runBench(t, "stray-arg"); !errors.Is(err, errUsage) {
		t.Errorf("stray non-key=value arg err = %v, want errUsage", err)
	}
}

func TestListFirstLine(t *testing.T) {
	out, err := runBench(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(out, "\n"); first != "available experiments:" {
		t.Errorf("first line = %q", first)
	}
	if !strings.Contains(out, "  table1\n") {
		t.Error("-list output missing table1")
	}
}

func TestNoExpIsUsageError(t *testing.T) {
	out, err := runBench(t)
	if !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want errUsage", err)
	}
	// The experiment list still prints, so the user sees what to pass.
	if !strings.Contains(out, "available experiments:") {
		t.Error("usage path should list experiments")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := runBench(t, "-exp", "fig99"); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Errorf("err = %v, want unknown-experiment naming fig99", err)
	}
}

func TestGridFirstLine(t *testing.T) {
	out, err := runBench(t, "-grid", "engine=splitwise", "rate=2", "duration=5")
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out, "\n")
	if !strings.HasPrefix(first, "Model") || !strings.Contains(first, "Goodput(req/s)") {
		t.Errorf("grid header = %q", first)
	}
}

func TestScenarioCSVFirstLine(t *testing.T) {
	out, err := runBench(t, "-scenario", "steady", "-quick", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out, "\n")
	if first != "Scenario,Engine,Tenant,Offered,Completed,Goodput(req/s),Attain(%),TTFT-p95(s),TPOT-p95(s),NormLat-mean(s/tok)" {
		t.Errorf("scenario CSV header = %q", first)
	}
	if _, err := runBench(t, "-scenario", "no-such"); err == nil {
		t.Error("unknown scenario should error")
	}
}

// TestScenarioOutputJobsIndependent is the CLI half of the golden-trace
// acceptance: the full scenario catalog must render byte-identically on a
// serial pool and a racing 8-worker pool.
func TestScenarioOutputJobsIndependent(t *testing.T) {
	one, err := runBench(t, "-scenario", "all", "-jobs", "1")
	if err != nil {
		t.Fatal(err)
	}
	eight, err := runBench(t, "-scenario", "all", "-jobs", "8")
	if err != nil {
		t.Fatal(err)
	}
	if one != eight {
		t.Errorf("-scenario all differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s--- jobs=8\n%s", one, eight)
	}
}

// TestExperimentOutputJobsIndependent holds the quick experiment suite to
// the same contract: `-exp all -quick` stdout is byte-identical on a
// serial pool and an 8-worker pool, which rules out wall-clock columns.
func TestExperimentOutputJobsIndependent(t *testing.T) {
	one, err := runBench(t, "-exp", "all", "-quick", "-jobs", "1")
	if err != nil {
		t.Fatal(err)
	}
	eight, err := runBench(t, "-exp", "all", "-quick", "-jobs", "8")
	if err != nil {
		t.Fatal(err)
	}
	if one != eight {
		t.Errorf("-exp all -quick differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s--- jobs=8\n%s", one, eight)
	}
}

// TestExperimentGolden pins `-exp all -quick` stdout, so every experiment
// table (costing, planning, profiling and the engine runs behind them)
// stays byte-identical across refactors.
func TestExperimentGolden(t *testing.T) {
	out, err := runBench(t, "-exp", "all", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "exp-all-quick"); out != want {
		t.Errorf("-exp all -quick differs from testdata/exp-all-quick.golden:\n%s", out)
	}
}

// TestScenarioShardWorkersIndependent is the CLI face of the fleet
// determinism contract: a sharded scenario's CSV is byte-identical at
// every -shard-workers value.
func TestScenarioShardWorkersIndependent(t *testing.T) {
	one, err := runBench(t, "-scenario", "fleet", "-quick", "-csv", "-shard-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	four, err := runBench(t, "-scenario", "fleet", "-quick", "-csv", "-shard-workers", "4")
	if err != nil {
		t.Fatal(err)
	}
	if one != four {
		t.Errorf("-scenario fleet differs between -shard-workers 1 and 4:\n--- 1\n%s--- 4\n%s", one, four)
	}
}

// TestBenchFlagIsUnknown pins that the command has no -bench mode: the
// simulator's speed is measured by benchmark/, so -bench is an unknown
// flag and the command exits 2, like any other flag mistake.
func TestBenchFlagIsUnknown(t *testing.T) {
	for _, args := range [][]string{{"-bench"}, {"-bench", "-scenario", "steady", "-quick"}} {
		var stderr bytes.Buffer
		err := run(args, io.Discard, &stderr)
		if !errors.Is(err, errParse) {
			t.Fatalf("run(%v) err = %v, want a flag-parse error", args, err)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: -bench") {
			t.Errorf("run(%v) stderr = %q, want the unknown-flag report", args, stderr.String())
		}
		if code := exitCode(err, io.Discard); code != 2 {
			t.Errorf("run(%v) exits %d, want 2", args, code)
		}
	}
}

func TestStreamScenarioWithWindows(t *testing.T) {
	out, err := runBench(t, "-scenario", "steady", "-stream", "-windows", "5", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=== windows steady/hetis (5s buckets) ===") {
		t.Errorf("missing per-engine windows table:\n%s", out)
	}
	if !strings.Contains(out, "Goodput(req/s)") || !strings.Contains(out, "TTFT-p95(s)") {
		t.Errorf("windows table header missing:\n%s", out)
	}
}

func TestScenarioStreamMode(t *testing.T) {
	out, err := runBench(t, "-scenario", "steady", "-stream", "-windows", "5", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=== scenarios, streaming") {
		t.Errorf("missing streaming banner:\n%s", out)
	}
	if !strings.Contains(out, "=== windows steady/hetis (5s buckets) ===") {
		t.Errorf("missing windows table:\n%s", out)
	}
}

func TestScenarioFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig8", "-scenario", "steady"},
		{"-exp", "fig8", "-stream"},
		{"-scenario", "steady", "-windows", "5"},
	} {
		if _, err := runBench(t, args...); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) err = %v, want errUsage", args, err)
		}
	}
}

func TestStreamFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "steady", "-windows", "5"},        // -windows needs -stream
		{"-grid", "rate=2", "-stream", "-windows", "5"}, // -windows is scenario-only
		{"-exp", "fig8", "-stream"},                     // experiments are exact
		{"-scenario", "steady", "-stream", "-windows", "-1"},
	} {
		if _, err := runBench(t, args...); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) err = %v, want errUsage", args, err)
		}
	}
}

func TestStreamGridRuns(t *testing.T) {
	exact, err := runBench(t, "-grid", "engine=hexgen", "rate=2", "duration=5", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := runBench(t, "-grid", "engine=hexgen", "rate=2", "duration=5", "-csv", "-stream")
	if err != nil {
		t.Fatal(err)
	}
	// Identity and count columns agree; only latency cells may differ.
	if exact == "" || stream == "" {
		t.Fatal("empty grid output")
	}
	ef := strings.Split(strings.Split(exact, "\n")[1], ",")
	sf := strings.Split(strings.Split(stream, "\n")[1], ",")
	for col := 0; col < 10; col++ {
		if ef[col] != sf[col] {
			t.Errorf("col %d: stream %q exact %q", col, sf[col], ef[col])
		}
	}
}

func TestStreamWindowsCSVKeepsStdoutParseable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "steady", "-stream", "-windows", "5", "-quick", "-csv"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "===") {
		t.Errorf("-csv stdout contains banner lines:\n%s", s)
	}
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if line != "" && !strings.Contains(line, ",") {
			t.Errorf("-csv stdout has a non-CSV line %q", line)
		}
	}
}

// TestProfileFlags checks that -cpuprofile and -memprofile write
// non-empty profiles and leave stdout byte-identical.
func TestProfileFlags(t *testing.T) {
	plain, err := runBench(t, "-scenario", "steady", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	profiled, err := runBench(t, "-scenario", "steady", "-quick", "-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		t.Fatal(err)
	}
	if profiled != plain {
		t.Errorf("profiling changed stdout:\n%s\nwant\n%s", profiled, plain)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (stat err %v)", filepath.Base(path), err)
		}
	}
	if _, err := runBench(t, "-scenario", "steady", "-quick", "-cpuprofile", filepath.Join(dir, "missing", "cpu.out")); err == nil {
		t.Error("an uncreatable -cpuprofile path should fail the run")
	}
}

// readGolden returns testdata/name.golden.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPlanGoldens pins -plan: the §4.1 plan, a blank line, then the §5.1
// profile on the plan's primary device. Where a case has both goldens the
// output is exactly their join; otherwise it starts with the plan golden
// or ends with the profile golden.
func TestPlanGoldens(t *testing.T) {
	for _, tc := range []struct {
		args          []string
		plan, profile string
	}{
		{[]string{"-plan", "Llama-70B"}, "plan-Llama-70B", "profile-Llama-70B"},
		{[]string{"-plan", "OPT-30B", "-cluster", "2xA100,4xT4"}, "plan-OPT-30B-2xA100-4xT4", ""},
		{[]string{"-plan", "Llama-13B", "-batch", "128", "-context", "800"}, "plan-Llama-13B-batch128", ""},
		{[]string{"-plan", "OPT-30B"}, "", "profile-OPT-30B"},
	} {
		out, err := runBench(t, tc.args...)
		if err != nil {
			t.Fatalf("run(%v): %v", tc.args, err)
		}
		var want string
		switch {
		case tc.plan != "" && tc.profile != "":
			want = readGolden(t, tc.plan) + "\n" + readGolden(t, tc.profile)
		case tc.plan != "":
			want = readGolden(t, tc.plan) + "\n"
			out = out[:min(len(out), len(want))]
		default:
			want = "\n" + readGolden(t, tc.profile)
			out = out[max(0, len(out)-len(want)):]
		}
		if out != want {
			t.Errorf("run(%v) stdout:\n%s\nwant:\n%s", tc.args, out, want)
		}
	}
}

func TestPlanFirstLine(t *testing.T) {
	out, err := runBench(t, "-plan", "Llama-13B", "-cluster", "2xA100")
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out, "\n")
	if !strings.HasPrefix(first, "model:") || !strings.Contains(first, "Llama-13B") {
		t.Errorf("first line = %q, want model: ... Llama-13B", first)
	}
	if !strings.Contains(out, "modeled decode step:") {
		t.Error("output missing the modeled-cost summary line")
	}
}

// TestProfileFirstLine checks the §5.1 table that follows the plan's
// blank line: it names the model and the primary device and has a row
// per cluster device.
func TestProfileFirstLine(t *testing.T) {
	out, err := runBench(t, "-plan", "OPT-13B")
	if err != nil {
		t.Fatal(err)
	}
	_, profile, ok := strings.Cut(out, "\n\nmodel ")
	if !ok {
		t.Fatalf("-plan output has no profile table:\n%s", out)
	}
	first, _, _ := strings.Cut("model "+profile, "\n")
	if !strings.HasPrefix(first, "model OPT-13B") || !strings.Contains(first, "primary device 0") {
		t.Errorf("profile first line = %q", first)
	}
	if lines := strings.Count(profile, "\n"); lines < 5 {
		t.Errorf("profile table only has %d lines", lines)
	}
}

func TestPlanUnknownModel(t *testing.T) {
	if _, err := runBench(t, "-plan", "no-such"); err == nil {
		t.Error("unknown model should error")
	}
}

func TestPlanBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-plan", "no-such-model"},
		{"-plan", "Llama-13B", "-cluster", "bogus"},
		{"-plan", "Llama-13B", "-cluster", "NaNxA100"},
		{"-plan", "Llama-13B", "-cluster", "2xNoGPU"},
		{"-plan", "Llama-13B", "-batch", "0"},
		{"-plan", "Llama-13B", "-delta", "-1"},
	} {
		if _, err := runBench(t, args...); err == nil || exitCode(err, io.Discard) != 1 {
			t.Errorf("run(%v) err = %v, want a run error", args, err)
		}
	}
}

// TestTraceOutGoldens pins -trace-out on grid points: each point writes
// its event log as JSONL under its job key.
func TestTraceOutGoldens(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		dims   []string
		file   string
		golden string
	}{
		{[]string{"engine=splitwise", "dataset=HE", "rate=2", "duration=3"}, "Llama-13B_HE_2_splitwise.jsonl", "trace-splitwise-HE"},
		{[]string{"engine=hexgen", "dataset=LB", "rate=1", "duration=60"}, "Llama-13B_LB_1_hexgen.jsonl", "trace-hexgen-LB"},
		{[]string{"engine=hetis", "model=Llama-13B", "dataset=SG", "rate=5", "duration=10"}, "Llama-13B_SG_5_hetis.jsonl", "trace-hetis-SG"},
	} {
		plain, err := runBench(t, tc.dims...)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runBench(t, append([]string{"-trace-out", dir}, tc.dims...)...)
		if err != nil {
			t.Fatal(err)
		}
		if traced != plain {
			t.Errorf("%v: -trace-out changed stdout:\n%s\nwant\n%s", tc.dims, traced, plain)
		}
		got, err := os.ReadFile(filepath.Join(dir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != readGolden(t, tc.golden) {
			t.Errorf("%s differs from testdata/%s.golden", tc.file, tc.golden)
		}
	}
}

func TestTraceOutWritesFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := runBench(t, "-trace-out", dir, "-grid", "engine=hexgen", "dataset=HE", "rate=2", "duration=3"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "Llama-13B_HE_2_hexgen.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != '{' {
		t.Errorf("trace file starts %q, want JSONL", data[:min(20, len(data))])
	}
}

// TestTraceOutScenario writes one trace per (scenario, engine) run; a
// sharded scenario's merged fleet trace is the same at every
// -shard-workers value.
func TestTraceOutScenario(t *testing.T) {
	one, four := t.TempDir(), t.TempDir()
	for _, run := range []struct {
		dir     string
		workers string
	}{{one, "1"}, {four, "4"}} {
		if _, err := runBench(t, "-scenario", "fleet", "-quick", "-trace-out", run.dir, "-shard-workers", run.workers); err != nil {
			t.Fatal(err)
		}
	}
	for _, eng := range []string{"hetis", "vllm"} {
		a, err := os.ReadFile(filepath.Join(one, "fleet_"+eng+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(four, "fleet_"+eng+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || a[0] != '{' {
			t.Errorf("fleet_%s.jsonl starts %q, want JSONL", eng, a[:min(20, len(a))])
		}
		if !bytes.Equal(a, b) {
			t.Errorf("fleet_%s.jsonl differs between -shard-workers 1 and 4", eng)
		}
	}
}

func TestGridBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-grid", "engine=warp"},
		{"-grid", "model=no-such", "duration=1"},
		{"-grid", "dataset=XX", "duration=1"},
		{"-grid", "rate=0"},
		{"-grid", "duration=-5"},
	} {
		if _, err := runBench(t, args...); err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
		}
	}
}

// TestPlanAndTraceUsage pins the flag combinations that are command-line
// mistakes (exit 2).
func TestPlanAndTraceUsage(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-exp", "fig15b", "-trace-out", dir},
		{"-scenario", "steady", "-stream", "-trace-out", dir},
		{"-grid", "rate=2", "-stream", "-trace-out", dir},
		{"-plan", "Llama-13B", "-trace-out", dir},
		{"-scenario", "steady", "-cluster", "2xA100"},
		{"-grid", "rate=2", "-batch", "8"},
		{"-exp", "fig15b", "-delta", "0.1"},
		{"-plan", "Llama-13B", "-csv"},
		{"-plan", "Llama-13B", "-scenario", "steady"},
	} {
		err := run(args, io.Discard, io.Discard)
		if !errors.Is(err, errUsage) || exitCode(err, io.Discard) != 2 {
			t.Errorf("run(%v) err = %v, want a usage error (exit 2)", args, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a refused run wrote %d trace files", len(entries))
	}
}
