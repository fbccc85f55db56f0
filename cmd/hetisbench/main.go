// Command hetisbench runs experiments, grid sweeps, and scenarios on a
// bounded worker pool.
//
// Usage:
//
//	hetisbench -exp all -jobs 8 -quick        # every paper experiment, pooled
//	hetisbench -exp fig8,fig9                 # a subset, in id order
//	hetisbench -grid engine=hetis,splitwise,vllm dataset=SG,HE,LB rate=2,5,10
//	hetisbench -grid rate=1,2,4,8 -csv        # sweep one dimension, CSV out
//	hetisbench -grid scenario=bursty,diurnal  # scenarios as a grid dimension
//	hetisbench -scenario all -jobs 8          # the scenario catalog, pooled
//	hetisbench -scenario bursty,multitenant -csv
//	hetisbench -scenario megascale -stream    # million requests, O(1) metric memory
//	hetisbench -scenario diurnal -stream -windows 5   # plus 5s windowed series
//	hetisbench -bench                         # perf trajectory -> BENCH.json
//	hetisbench -bench -quick -repeat 3        # CI smoke: reduced scale, best-of-3
//	hetisbench -bench -bench-baseline old.json -bench-out BENCH.json
//	hetisbench -list                          # show experiment ids and scenarios
//	hetisbench -scenario megascale -cpuprofile cpu.out -memprofile mem.out
//
// Grid dimensions are key=v1,v2,... pairs: engine, dataset, rate, model,
// scenario, duration, seed. They may be repeated -grid flags or bare
// trailing arguments; unspecified dimensions default to Llama-13B on
// ShareGPT at 5 req/s with the three paper systems. Output rows follow
// grid order (dimension values as given, engines innermost), experiment-id
// order, or scenario catalog order, independent of completion order, so
// stdout is byte-identical for every -jobs value; timings go to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hetis"
)

// multiFlag accumulates repeated -grid values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// errUsage marks command-line mistakes (exit code 2, like flag errors).
var errUsage = errors.New("usage")

// errParse marks flag-parse failures the FlagSet already reported.
var errParse = errors.New("flag parse error")

func usageError(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		// -h prints usage and succeeds, matching flag.ExitOnError.
	case errors.Is(err, errParse):
		os.Exit(2) // the FlagSet already reported the mistake
	case errors.Is(err, errUsage):
		fmt.Fprintf(os.Stderr, "hetisbench: %v\n", err)
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "hetisbench: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of main: it parses args, runs the selected
// mode, and writes tables to stdout and timings to stderr.
// printList writes the experiment ids and scenario names -list shows.
func printList(w io.Writer) {
	fmt.Fprintln(w, "available experiments:")
	for _, id := range hetis.ExperimentIDs() {
		fmt.Fprintf(w, "  %s\n", id)
	}
	fmt.Fprintln(w, "available scenarios:")
	for _, name := range hetis.ScenarioNames() {
		fmt.Fprintf(w, "  %s%s\n", name, scenarioTag(name))
	}
}

func run(argv []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("hetisbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var gridDims multiFlag
	exp := fs.String("exp", "", "experiment ids, comma-separated, or 'all'")
	fs.Var(&gridDims, "grid", "grid dimension key=v1,v2,... (repeatable; bare trailing key=... args are folded in)")
	scen := fs.String("scenario", "", "scenario names, comma-separated, or 'all'")
	jobs := fs.Int("jobs", 0, "max concurrent runs (0 = one per CPU)")
	quick := fs.Bool("quick", false, "reduced-scale traces for fast runs")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := fs.Int64("seed", 0, "trace seed offset (experiments, scenarios) or base seed (grid)")
	list := fs.Bool("list", false, "list experiment ids and scenarios, then exit")
	benchMode := fs.Bool("bench", false, "run the perf-trajectory harness (-scenario narrows the suite)")
	benchOut := fs.String("bench-out", "BENCH.json", "perf report path for -bench")
	benchBase := fs.String("bench-baseline", "", "existing BENCH.json whose suite becomes the -bench baseline")
	repeat := fs.Int("repeat", 1, "repetitions per -bench measurement (best wall-clock kept)")
	benchMicro := fs.Bool("bench-micro", true, "include micro-benchmarks in -bench (adds a few seconds)")
	benchSinks := fs.Bool("bench-sinks", true, "include the exact-vs-streaming sink comparison in -bench (runs megascale twice; adds ~15s full-scale)")
	benchFleet := fs.Bool("bench-fleet", true, "include the fleet shard-scaling section in -bench (runs gigascale at several worker counts)")
	benchFleetScen := fs.String("bench-fleet-scenario", "", "sharded scenario the -bench fleet section measures (default gigascale)")
	benchFleetWorkers := fs.String("bench-fleet-workers", "", "comma-separated shard-worker counts the -bench fleet section sweeps (default 1,2,4,8)")
	stream := fs.Bool("stream", false, "measure through constant-memory streaming sinks (grid, scenario, bench modes)")
	windows := fs.Float64("windows", 0, "with -stream -scenario: also print windowed time series with this bucket width in seconds")
	shardWorkers := fs.Int("shard-workers", 0, "max concurrent shards within a fleet scenario (0 = one per CPU; output is identical at every value)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile, taken after the run, to this file")

	// Parse in rounds so flags and bare key=value grid dimensions can
	// interleave: the flag package stops at the first non-flag argument,
	// but `hetisbench -grid engine=hetis dataset=SG,HE -jobs 8` should
	// work as written.
	args := argv
	for {
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return err
			}
			return fmt.Errorf("%w: %v", errParse, err)
		}
		rest := fs.Args()
		i := 0
		// A lone "-" is a non-flag arg the parser will never consume;
		// claim it here so the rounds always make progress.
		for i < len(rest) && (!strings.HasPrefix(rest[i], "-") || rest[i] == "-") {
			if !strings.Contains(rest[i], "=") {
				return usageError("unexpected argument %q (grid dimensions are key=v1,v2,...)", rest[i])
			}
			gridDims = append(gridDims, rest[i])
			i++
		}
		if i == len(rest) {
			break
		}
		args = rest[i:]
	}

	if *list {
		printList(stdout)
		return nil
	}

	// -bench is its own mode; -scenario composes with it to narrow the
	// suite instead of selecting the pooled scenario-table mode.
	modes := 0
	for _, on := range []bool{*exp != "", len(gridDims) > 0, *scen != "" && !*benchMode, *benchMode} {
		if on {
			modes++
		}
	}
	if modes == 0 {
		// No mode at all: show what can be passed before the usage error.
		printList(stdout)
	}
	if modes != 1 {
		return usageError("need exactly one of -exp, -grid, -scenario or -bench (see -h; -list shows ids)")
	}

	if *windows != 0 && !(*stream && *scen != "" && !*benchMode) {
		return usageError("-windows needs -stream and -scenario (the windowed series is a streaming-sink product)")
	}
	if *windows < 0 {
		return usageError("-windows must be positive")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err == nil {
				err = writeHeapProfile(*memProfile)
			}
		}()
	}

	start := time.Now()
	pool := hetis.SweepOptions{Jobs: *jobs, Cache: hetis.NewSweepCache(), ShardWorkers: *shardWorkers}
	switch {
	case *benchMode:
		// The harness runs sequentially (stable wall-clock) with the
		// scenarios' own seeds; these knobs would be silently ignored.
		if *seed != 0 || *csv || *jobs != 0 {
			return usageError("-seed, -csv and -jobs do not apply to -bench")
		}
		fleetWorkers, err := parseWorkerList(*benchFleetWorkers)
		if err != nil {
			return usageError("-bench-fleet-workers: %v", err)
		}
		if err := runPerfBench(stdout, stderr, *scen, *quick, *repeat, *stream, *benchOut, *benchBase,
			*benchMicro, *benchSinks, *benchFleet, *benchFleetScen, fleetWorkers); err != nil {
			return err
		}
	case len(gridDims) > 0:
		spec := hetis.GridSpec{Quick: *quick, Seed: *seed, Stream: *stream}
		spec, err := hetis.ParseGridDims(spec, gridDims)
		if err != nil {
			return err
		}
		tab, err := hetis.RunGrid(spec, pool)
		if err != nil {
			return err
		}
		emit(stdout, tab, *csv)
	case *scen != "":
		names := strings.Split(*scen, ",")
		if *stream {
			tab, wins, err := hetis.RunScenariosStream(names, *quick, *seed, *windows, pool)
			if err != nil {
				return err
			}
			// Keep -csv stdout machine-parseable: the banners go to stderr
			// there, so stdout stays a sequence of pure CSV tables.
			banners := stdout
			if *csv {
				banners = stderr
			}
			fmt.Fprintln(banners, "=== scenarios, streaming ===")
			emit(stdout, tab, *csv)
			for _, w := range wins {
				fmt.Fprintf(banners, "\n=== windows %s/%s (%gs buckets) ===\n", w.Scenario, w.Engine, *windows)
				emit(stdout, w.Table, *csv)
			}
			break
		}
		tab, err := hetis.RunScenarios(names, *quick, *seed, pool)
		if err != nil {
			return err
		}
		emit(stdout, tab, *csv)
	default:
		if *stream {
			return usageError("-stream does not apply to -exp (experiments pin exact paper tables)")
		}
		ids := strings.Split(*exp, ",")
		if *exp == "all" {
			ids = hetis.ExperimentIDs()
		}
		opts := hetis.ExperimentOptions{Quick: *quick, Seed: *seed}
		results, err := hetis.RunExperiments(ids, opts, pool)
		if err != nil && results == nil {
			return err
		}
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			fmt.Fprintf(stdout, "=== %s ===\n", r.Key)
			emit(stdout, r.Table, *csv)
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stderr, "hetisbench: done in %.2fs (jobs=%d)\n", time.Since(start).Seconds(), *jobs)
	return nil
}

// writeHeapProfile writes the heap profile of everything the run
// allocated, after a GC so the live-heap view is current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("-memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}

// runPerfBench executes the perf-trajectory harness and writes BENCH.json. A
// summary table goes to stdout so humans see the numbers the file records.
func runPerfBench(stdout, stderr io.Writer, scen string, quick bool, repeat int, stream bool, outPath, basePath string, micro, sinks, fleet bool, fleetScen string, fleetWorkers []int) error {
	opts := hetis.BenchOptions{
		Quick: quick, Repeat: repeat, Stream: stream,
		SkipMicro: !micro, SkipSinks: !sinks,
		SkipFleet: !fleet, FleetScenario: fleetScen, FleetWorkers: fleetWorkers,
	}
	if scen != "" && scen != "all" {
		opts.Scenarios = strings.Split(scen, ",")
	}
	rep, err := hetis.RunBench(opts)
	if err != nil {
		return err
	}
	if basePath != "" {
		base, err := hetis.ReadBenchReport(basePath)
		if err != nil {
			return err
		}
		if base.Quick != rep.Quick {
			return fmt.Errorf("baseline %s was measured with quick=%v, this run is quick=%v (not comparable)",
				basePath, base.Quick, rep.Quick)
		}
		if base.Stream != rep.Stream {
			return fmt.Errorf("baseline %s was measured with stream=%v, this run is stream=%v (not comparable)",
				basePath, base.Stream, rep.Stream)
		}
		if !hetis.BenchSamePairs(&base.Suite, &rep.Suite) {
			return fmt.Errorf("baseline %s measured a different (scenario, engine) set than this run (not comparable; match the -scenario selection)",
				basePath)
		}
		rep.WithBaseline(&base.Suite)
	}
	if err := hetis.WriteBenchReport(outPath, rep); err != nil {
		return err
	}

	tab := &hetis.Table{Header: []string{
		"Scenario", "Engine", "Wall(s)", "Events", "Events/s", "LPSolves", "LPAvoided", "Allocs/ev",
	}}
	for _, sb := range rep.Suite.Scenarios {
		tab.AddRow(sb.Scenario, sb.Engine, sb.WallSeconds, sb.Events, sb.EventsPerSec,
			sb.LPSolves, sb.LPSolvesAvoided, sb.AllocsPerEvent)
	}
	fmt.Fprint(stdout, tab)
	fmt.Fprintf(stdout, "suite: %.3fs wall, %d events (%.0f events/s), %d LP solves (%d avoided)\n",
		rep.Suite.WallSeconds, rep.Suite.Events, rep.Suite.EventsPerSec,
		rep.Suite.LPSolves, rep.Suite.LPSolvesAvoided)
	fmt.Fprintf(stdout, "lp: %d placement solves / %d avoided / %d ideal relaxations, %d rows patched, %.3fs in solver (%.1f%% of wall)\n",
		rep.Suite.LP.Solves, rep.Suite.LP.SolvesAvoided, rep.Suite.LP.IdealSolves,
		rep.Suite.LP.PatchedRows, rep.Suite.LP.SolveSeconds, 100*rep.Suite.LP.WallShare)
	for _, mb := range rep.Micro {
		fmt.Fprintf(stdout, "micro: %-28s %12.0f ns/op  %6d B/op  %4d allocs/op\n",
			mb.Name, mb.NsPerOp, mb.BytesPerOp, mb.AllocsPerOp)
	}
	for _, sb := range rep.Sinks {
		fmt.Fprintf(stdout, "sinks: %s/%s %-9s  %7.3fs wall  %5.2f allocs/ev  live heap %+.1f MB\n",
			sb.Scenario, sb.Engine, sb.Sink, sb.WallSeconds, sb.AllocsPerEvent, float64(sb.LiveHeapBytes)/1e6)
	}
	if fs := rep.Fleet; fs != nil {
		for _, row := range fs.Rows {
			fmt.Fprintf(stdout, "fleet: %s/%s %d shards  %d workers  %7.3fs wall  %.0f events/s  %.2fx vs 1  live heap %+.1f MB\n",
				fs.Scenario, fs.Engine, fs.Shards, row.ShardWorkers, row.WallSeconds,
				row.EventsPerSec, row.SpeedupVs1, float64(row.LiveHeapBytes)/1e6)
		}
	}
	if rep.Baseline != nil {
		fmt.Fprintf(stdout, "speedup vs baseline: %.2fx (%.3fs -> %.3fs)\n",
			rep.SpeedupVsBaseline, rep.Baseline.WallSeconds, rep.Suite.WallSeconds)
	}
	fmt.Fprintf(stderr, "hetisbench: wrote %s\n", outPath)
	return nil
}

// parseWorkerList parses a comma-separated list of positive shard-worker
// counts; empty means the harness default.
func parseWorkerList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func emit(w io.Writer, tab *hetis.Table, csv bool) {
	if csv {
		fmt.Fprint(w, tab.CSV())
	} else {
		fmt.Fprint(w, tab)
	}
}

// scenarioTag annotates a -list row for scenarios the catalog-wide
// expansions skip: heavy (cost) and chaotic (extra table columns).
func scenarioTag(name string) string {
	s, err := hetis.ScenarioByName(name)
	switch {
	case err != nil:
		return ""
	case s.Heavy && s.Sharded():
		return " [heavy] [fleet]"
	case s.Heavy:
		return " [heavy]"
	case s.Sharded():
		return " [fleet]"
	case s.Chaotic():
		return " [chaos]"
	}
	return ""
}
