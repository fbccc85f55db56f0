// Command hetisbench runs experiments, grid sweeps, and scenarios on a
// bounded worker pool, and plans and profiles a deployment.
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
//	hetisbench -grid engine=hetis dataset=SG rate=5 duration=60 -trace-out traces
//	hetisbench -scenario failover -quick -trace-out traces   # event logs as JSONL
//	hetisbench -plan Llama-70B                # §4.1 plan + §5.1 profile, paper cluster
//	hetisbench -plan OPT-30B -cluster 2xA100,4xT4 -batch 128 -context 800
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
//
// -trace-out DIR writes each grid point's or exact scenario run's event
// log to DIR/<run key, '/' replaced by '_'>.jsonl (a sharded run's merged
// fleet trace). -plan MODEL prints the §4.1 deployment plan for the
// -cluster and expected workload, then the §5.1 profile fitted on the
// plan's primary device.
//
// The simulator's own speed is measured by the end-to-end benchmark in
// benchmark/ (bash benchmark/run.sh); -cpuprofile and -memprofile profile
// any single run of this command.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
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
	os.Exit(exitCode(run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// exitCode reports err the way the command exits on it: 0 on success and
// -h, 2 on command-line mistakes (like flag.ExitOnError), 1 otherwise.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errParse):
		return 2 // the FlagSet already reported the mistake
	case errors.Is(err, errUsage):
		fmt.Fprintf(stderr, "hetisbench: %v\n", err)
		return 2
	default:
		fmt.Fprintf(stderr, "hetisbench: %v\n", err)
		return 1
	}
}

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

// run is the testable body of main: it parses args, runs the selected
// mode, and writes tables to stdout and timings to stderr.
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
	stream := fs.Bool("stream", false, "measure through constant-memory streaming sinks (grid and scenario modes)")
	windows := fs.Float64("windows", 0, "with -stream -scenario: also print windowed time series with this bucket width in seconds")
	shardWorkers := fs.Int("shard-workers", 0, "max concurrent shards within a fleet scenario (0 = one per CPU; output is identical at every value)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile, taken after the run, to this file")
	traceOut := fs.String("trace-out", "", "with -grid or exact -scenario: write each run's event trace to DIR/<run key>.jsonl")
	plan := fs.String("plan", "", "print the deployment plan and cost profile of this model preset")
	clusterSpec := fs.String("cluster", "paper", `with -plan: "paper" or a list like "4xA100,4x3090,4xP100" (one host per entry)`)
	wl := hetis.PlanWorkload{PrefillBatch: 4}
	fs.IntVar(&wl.DecodeBatch, "batch", 64, "with -plan: expected concurrent decode batch (R)")
	fs.IntVar(&wl.AvgContext, "context", 600, "with -plan: expected average context length")
	fs.IntVar(&wl.AvgPrompt, "prompt", 400, "with -plan: expected average prompt length")
	fs.IntVar(&wl.AvgOutput, "output", 240, "with -plan: expected average output length")
	delta := fs.Float64("delta", 0.05, "with -plan: exclusion threshold Δ")

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

	modes := 0
	for _, on := range []bool{*exp != "", len(gridDims) > 0, *scen != "", *plan != ""} {
		if on {
			modes++
		}
	}
	if modes == 0 {
		// No mode at all: show what can be passed before the usage error.
		printList(stdout)
	}
	if modes != 1 {
		return usageError("need exactly one of -exp, -grid, -scenario or -plan (see -h; -list shows ids)")
	}

	if *windows != 0 && !(*stream && *scen != "") {
		return usageError("-windows needs -stream and -scenario (the windowed series is a streaming-sink product)")
	}
	if *windows < 0 {
		return usageError("-windows must be positive")
	}
	if *traceOut != "" && (*stream || (len(gridDims) == 0 && *scen == "")) {
		return usageError("-trace-out needs -grid or -scenario without -stream (streaming runs record no event trace)")
	}
	if *plan != "" && (*csv || *stream) {
		return usageError("-plan prints a plan and a profile, not a table: -csv and -stream do not apply")
	}
	planOnly := ""
	if *plan == "" {
		fs.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Usage, "with -plan:") {
				planOnly = f.Name
			}
		})
	}
	if planOnly != "" {
		return usageError("-%s applies only to -plan", planOnly)
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
	pool := hetis.SweepOptions{Jobs: *jobs, ShardWorkers: *shardWorkers, TraceDir: *traceOut}
	switch {
	case *plan != "":
		if err := printPlan(stdout, stderr, *plan, *clusterSpec, wl, *delta); err != nil {
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

// printPlan writes what -plan shows: the §4.1 plan for the model on the
// cluster, a blank line, and the §5.1 profile fitted on the plan's primary
// device, the device the Hetis engine fits on. The search's wall clock
// goes to stderr, so stdout depends only on the arguments.
func printPlan(stdout, stderr io.Writer, modelName, clusterSpec string, wl hetis.PlanWorkload, delta float64) error {
	m, err := hetis.ModelByName(modelName)
	if err != nil {
		return err
	}
	cluster, err := hetis.ParseCluster(clusterSpec)
	if err != nil {
		return err
	}
	opts := hetis.DefaultPlanOptions()
	opts.Delta = delta
	plan, err := hetis.SearchPlan(cluster, m, wl, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "hetisbench: searched in %v\n", plan.Elapsed)
	fmt.Fprintf(stdout, "model:    %s\ncluster:  %s\nsearched: %d configurations\n\n%s", m, cluster, plan.Evaluated, plan)
	fmt.Fprintf(stdout, "\nmodeled decode step: %.2f ms   prefill: %.2f ms   KV capacity: %.1f GB\n",
		plan.DecodeStepCost*1e3, plan.PrefillCost*1e3, float64(plan.CacheCapacity)/1e9)
	primary := plan.Instances[0].Stages[0].Devices[0]
	prof, err := hetis.ProfileCluster(m, cluster, primary)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nmodel %s on %s (primary device %d)\n\n%-10s %-14s %-14s %-12s %-10s %-14s %-12s %-8s\n",
		m, cluster, primary, "device", "a (s/head)", "b (s/byte)", "c (s)", "fit(%)", "γ (s/byte)", "β (s)", "net(%)")
	for _, dev := range cluster.Devices {
		am, nm := prof.Attn[dev.ID], prof.Net[dev.ID]
		fmt.Fprintf(stdout, "%-10s %-14.3e %-14.3e %-12.3e %-10.1f %-14.3e %-12.3e %-8.1f\n",
			dev.String(), am.A, am.B, am.C, prof.AttnAccuracy[dev.ID]*100,
			nm.Gamma, nm.Beta, prof.NetAccuracy[dev.ID]*100)
	}
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
