// Command benchmark is the repository's end-to-end benchmark: it runs each
// workload in fresh child processes (a re-exec of this binary, one at a
// time, GOMAXPROCS=2), times set-up, run and table rendering around the
// public scenario entry points, reads each child's peak RSS, checks the
// simulated output, and attributes a traced rep's time to the library's
// layers.
//
//	go run . [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	go run . -compare OLD.json NEW.json
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Fixed-count protocol (-seconds 0): timed reps, then traced reps.
const (
	fixedTimedReps  = 5
	fixedTracedReps = 1
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "Spec.Seed for every workload")
	seconds := fs.Float64("seconds", 0, "measure each workload for about this many seconds; 0 runs 5 timed reps and 1 traced rep")
	trace := fs.Int("trace", 1, "1 adds traced reps and reports per-layer metrics on the last line; 0 reports end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "benchmark-result.json"), "result JSON to write (empty: none)")
	spansOut := fs.String("spans", filepath.Join(".bench_build", "benchmark-spans.json"), "traced reps' spans JSON to write (empty: none)")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: OLD NEW")
	child := fs.Bool("child", false, "run one rep in this process and print it as JSON (used by the parent)")
	traced := fs.Bool("traced", false, "with -child: trace the rep")
	reference := fs.Bool("reference", false, "print the reference workload's host seconds (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs OLD and NEW result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	if *child {
		return runChildMode(stdout, stderr, *name, *seed, *traced)
	}
	if *reference {
		fmt.Fprintln(stdout, strconv.FormatFloat(referenceSeconds(), 'g', -1, 64))
		return 0
	}

	defs := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		defs = []workloadDef{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res := &resultFile{Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadResult{}}
	var spans []repSpans
	for _, w := range defs {
		m := &measurement{exe: exe, w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, log: stderr}
		wr := m.run()
		res.Workloads[w.Name] = wr
		spans = append(spans, m.spans...)
		printLines(stdout, w.Name, wr)
	}
	for _, f := range []struct {
		path string
		v    any
	}{{*out, res}, {*spansOut, spans}} {
		if f.path == "" {
			continue
		}
		if err := writeJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	ok, line := finalLine(res, defs, *trace == 1)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// runChildMode is one rep in this process: its result goes to stdout as
// JSON for the parent, errors to stderr with a nonzero exit.
func runChildMode(stdout, stderr io.Writer, name string, seed int64, traced bool) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	r, err := runRep(w, seed, traced)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", name, seed, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// resultFile is the -out document -compare reads.
type resultFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Events    uint64                   `json:"events"`
	TableSHA  string                   `json:"table_sha256"`
	Metrics   map[string]metricSummary `json:"metrics"`
}

type metricSummary struct {
	summary
	Unit string `json:"unit"`
}

type repSpans struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Rep      int    `json:"rep"`
	Spans    []span `json:"spans"`
}

//go:embed testdata/expected.json
var expectedJSON []byte

// expectedOutput is the simulated output pinned at seed 1: the sha256 of
// the workload's table CSV and its event count.
type expectedOutput struct {
	TableSHA string `json:"table_sha256"`
	Events   uint64 `json:"events"`
}

// measurement runs one workload's reps as child processes and collects
// them.
type measurement struct {
	exe     string
	w       workloadDef
	seed    int64
	seconds float64
	traced  bool
	log     io.Writer

	timed, tracedReps []*repResult
	attempted, failed int
	attempts          [2]int     // reps started, [timed, traced]
	ref               *repResult // the first good rep: later reps must match its output
	spans             []repSpans
}

func (m *measurement) run() *workloadResult {
	var expected map[string]expectedOutput
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		panic(fmt.Sprintf("embedded testdata/expected.json: %v", err))
	}
	pin, pinned := expected[m.w.Name]
	start := time.Now()
	var last [2]time.Duration // last rep's duration, [timed, traced]
	for {
		tracedNext := m.nextIsTraced()
		if m.done(time.Since(start) + last[b2i(tracedNext)]) {
			break
		}
		t := time.Now()
		r, err := m.child(tracedNext)
		last[b2i(tracedNext)] = time.Since(t)
		m.attempted++
		m.attempts[b2i(tracedNext)]++
		if err == nil {
			err = m.check(r, pin, pinned)
		}
		if err != nil {
			m.failed++
			fmt.Fprintf(m.log, "benchmark: %s seed %d rep %d failed: %v\n", m.w.Name, m.seed, m.attempted, err)
			continue
		}
		if tracedNext {
			m.tracedReps = append(m.tracedReps, r)
			m.spans = append(m.spans, repSpans{Workload: m.w.Name, Seed: m.seed, Rep: m.attempted, Spans: r.Spans})
			r.Spans = nil
		} else {
			m.timed = append(m.timed, r)
		}
	}
	return m.result()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// nextIsTraced alternates timed and traced reps in budgeted runs; fixed
// runs do all timed reps first.
func (m *measurement) nextIsTraced() bool {
	if !m.traced {
		return false
	}
	if m.seconds == 0 {
		return m.attempts[0] >= fixedTimedReps
	}
	return m.attempts[1] < m.attempts[0]
}

// done reports whether the next rep, projected to end at the given time
// since the start, should not start. A budgeted run stops once the next
// rep would end past the budget, but never before a minimum: three timed
// reps for end-to-end medians, or one of each kind when traced (the
// overhead ratio needs both). Failed reps count towards the minimum, so a
// broken build cannot loop forever.
func (m *measurement) done(projected time.Duration) bool {
	if m.seconds == 0 {
		want := fixedTimedReps
		if m.traced {
			want += fixedTracedReps
		}
		return m.attempted >= want
	}
	minimum := 3
	if m.traced {
		minimum = 2
	}
	if m.attempted < minimum {
		return false
	}
	return projected.Seconds() > m.seconds
}

// child times the reference workload in one fresh process, then runs the
// rep in another, and returns the rep's result with the reference time and
// the rep's peak resident set filled in. The reference gets a process of
// its own so that its allocations cannot shift the rep's GC schedule or
// RSS.
func (m *measurement) child(traced bool) (*repResult, error) {
	out, err := m.command("-reference").Output()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refS, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || refS <= 0 {
		return nil, fmt.Errorf("reference output %q: %v", out, err)
	}
	cmd := m.command("-child", "-workload", m.w.Name,
		"-seed", strconv.FormatInt(m.seed, 10), "-traced="+strconv.FormatBool(traced))
	if out, err = cmd.Output(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	r := &repResult{}
	if err := json.Unmarshal(out, r); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	r.RefS = refS
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

func (m *measurement) command(args ...string) *exec.Cmd {
	cmd := exec.Command(m.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = m.log
	return cmd
}

// check holds a rep's simulated output to the invocation's first good rep
// and, at seed 1, to the values pinned in testdata/expected.json.
func (m *measurement) check(r *repResult, pin expectedOutput, pinned bool) error {
	if m.ref == nil {
		m.ref = r
	} else if r.TableSHA != m.ref.TableSHA || r.Events != m.ref.Events {
		return fmt.Errorf("output differs across reps: sha256 %s, %d events; first rep %s, %d events",
			r.TableSHA, r.Events, m.ref.TableSHA, m.ref.Events)
	}
	if pinned && m.seed == 1 && (r.TableSHA != pin.TableSHA || r.Events != pin.Events) {
		return fmt.Errorf("output differs from testdata/expected.json: sha256 %s, %d events; pinned %s, %d events",
			r.TableSHA, r.Events, pin.TableSHA, pin.Events)
	}
	return nil
}

// result summarizes the reps: end-to-end metrics from the timed reps,
// per-layer metrics from the traced ones.
func (m *measurement) result() *workloadResult {
	wr := &workloadResult{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricSummary{}}
	if m.ref != nil {
		wr.Events, wr.TableSHA = m.ref.Events, m.ref.TableSHA
	}
	putValues := func(name string, v []float64) {
		d, _ := metricByName(name)
		wr.Metrics[name] = metricSummary{summary: summarize(v), Unit: d.Unit}
	}
	// put summarizes one value per rep, converted to the reference host.
	put := func(name string, reps []*repResult, f func(*repResult) float64) {
		d, _ := metricByName(name)
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = onReferenceHost(d.Unit, f(r), r.RefS)
		}
		putValues(name, v)
	}
	if len(m.timed) > 0 {
		put("wall_s", m.timed, func(r *repResult) float64 { return r.WallS })
		put("setup_s", m.timed, func(r *repResult) float64 { return r.SetupS })
		put("events_per_s", m.timed, func(r *repResult) float64 { return float64(r.Events) / r.RunS })
		put("peak_rss_mb", m.timed, func(r *repResult) float64 { return r.PeakRSSMiB })
	}
	if len(m.tracedReps) == 0 {
		return wr
	}
	samples := map[string]int64{}
	var total int64
	for _, r := range m.tracedReps {
		for l, n := range r.CPUSamples {
			samples[l] += n
			total += n
		}
	}
	for _, d := range perLayer {
		switch {
		case d.Name == "host.speed":
			var v []float64
			for _, r := range append(slices.Clone(m.timed), m.tracedReps...) {
				v = append(v, referenceHostSeconds/r.RefS)
			}
			putValues(d.Name, v)
		case d.Name == "tracing.overhead_ratio":
			if len(m.timed) > 0 {
				putValues(d.Name, []float64{wr.Metrics["traced.wall_s"].Median/wr.Metrics["wall_s"].Median - 1})
			}
		case d.Name == "cpu.samples":
			putValues(d.Name, []float64{float64(total)})
		case strings.HasPrefix(d.Name, "cpu."):
			putValues(d.Name, []float64{ratio(float64(samples[strings.TrimPrefix(d.Name, "cpu.")]), float64(total))})
		default:
			put(d.Name, m.tracedReps, func(r *repResult) float64 { return r.Layers[d.Name] })
		}
	}
	return wr
}

// printLines writes one "workload metric value unit" line per metric, with
// quartiles and the sample count.
func printLines(w io.Writer, workload string, wr *workloadResult) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			s, ok := wr.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s %s %.6g %s q1=%.6g q3=%.6g n=%d\n", workload, d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
		}
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d events=%d table_sha256=%s\n", workload, wr.Attempted, wr.Failed, wr.Events, wr.TableSHA)
}

// finalLine is the one-line JSON summary: attempted and failed reps, and
// the end-to-end (trace 0) or per-layer (trace 1) medians. With several
// workloads the metric names are prefixed "workload/".
func finalLine(res *resultFile, defs []workloadDef, perLayerMetrics bool) (bool, string) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	names := endToEnd
	if perLayerMetrics {
		names = perLayer
	}
	complete := true
	for _, w := range defs {
		wr := res.Workloads[w.Name]
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for _, d := range names {
			s, ok := wr.Metrics[d.Name]
			if !ok || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
				complete = false
				continue
			}
			key := d.Name
			if len(defs) > 1 {
				key = w.Name + "/" + d.Name
			}
			line.Metrics[key] = value{s.Median, d.Unit}
		}
	}
	line.Correct = line.Failed == 0 && complete
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return line.Correct, string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareFiles prints, for every (workload, metric) in NEW, the OLD and NEW
// medians, NEW's quartiles, and for end-to-end metrics a verdict against
// the metric's bound.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	load := func(path string) (*resultFile, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	oldRes, err := load(oldPath)
	if err != nil {
		return err
	}
	newRes, err := load(newPath)
	if err != nil {
		return err
	}
	found := false
	fmt.Fprintf(w, "%-15s %-30s %12s %12s %8s %12s %12s  %s\n", "workload", "metric", "old", "new", "delta", "new-q1", "new-q3", "verdict")
	for _, wd := range workloads {
		nw, ok := newRes.Workloads[wd.Name]
		ow, ok2 := oldRes.Workloads[wd.Name]
		if !ok || !ok2 {
			continue
		}
		found = true
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				o, ok := ow.Metrics[d.Name]
				n, ok2 := nw.Metrics[d.Name]
				if !ok || !ok2 {
					continue
				}
				delta := "-"
				if o.Median != 0 {
					delta = fmt.Sprintf("%+.1f%%", 100*(n.Median-o.Median)/o.Median)
				}
				fmt.Fprintf(w, "%-15s %-30s %12.6g %12.6g %8s %12.6g %12.6g  %s\n",
					wd.Name, d.Name, o.Median, n.Median, delta, n.Q1, n.Q3, verdict(d, o.summary, n.summary))
			}
		}
	}
	if !found {
		return errors.New("the result files share no workload")
	}
	return nil
}

// verdict judges NEW against OLD for a bounded metric: "worse" when NEW's
// median is worse by more than the bound, "better" when it is better by
// more than either side's quartile spread with the quartile ranges apart,
// "unresolved" when the spread itself exceeds the bound and the ranges
// overlap, and "same" otherwise. Unbounded metrics get no verdict.
func verdict(d metricDef, old, new summary) string {
	if d.Bound == 0 || old.Median == 0 {
		return ""
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign * (new.Median - old.Median) / old.Median
	spread := max(old.Q3-old.Q1, new.Q3-new.Q1) / math.Abs(old.Median)
	apart := new.Q1 > old.Q3 || new.Q3 < old.Q1
	switch {
	case spread > d.Bound && !apart:
		return "unresolved"
	case worse > d.Bound:
		return "worse"
	case -worse > spread && apart:
		return "better"
	}
	return "same"
}
