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
