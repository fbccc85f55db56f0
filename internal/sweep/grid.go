package sweep

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"hetis/internal/engine"
	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

func errUnknownEngine(name string) error {
	return fmt.Errorf("sweep: unknown engine %q (known: %s)", name, strings.Join(engine.Names, ", "))
}

// GridSpec describes a sweep over the cartesian product
// {model × dataset × rate × engine} or, with Scenarios set,
// {model × scenario × engine}. Zero-valued fields take defaults:
// Llama-13B, ShareGPT, 5 req/s, the three paper systems, 40 s traces,
// seed 1. Scenarios define their own traffic and workload mix, so the
// scenario dimension excludes Datasets and Rates.
type GridSpec struct {
	Engines  []string  // engine names (see engine.Names)
	Models   []string  // model preset names (model.ByName)
	Datasets []string  // dataset preset names or codes (workload.ByName)
	Rates    []float64 // arrival rates, req/s
	// Scenarios names registered scenarios (scenario.Names); when set,
	// Datasets and Rates must be empty and each point's trace, mix, and
	// SLO come from the scenario spec (Duration and Seed still come from
	// the grid).
	Scenarios []string

	// Duration is the trace length in seconds; Quick quarters it, like
	// experiments.Options.Quick.
	Duration float64
	Quick    bool
	// Seed drives the trace sampling; points sharing a dataset and rate
	// replay the same trace.
	Seed int64

	// Stream measures every point through a constant-memory streaming sink
	// instead of the exact recorder: counts, goodput, and attainment stay
	// exact, the latency columns carry the sketch's relative-error bound,
	// and pooled workers stop holding a full record slice per in-flight
	// point. The default (false) is byte-identical to the historical exact
	// output.
	Stream bool
}

// withDefaults fills unset fields and folds Quick into Duration. It is
// idempotent — Quick is cleared once applied, so the spec can pass through
// RunGrid and RunPoint without quartering twice.
func (s GridSpec) withDefaults() GridSpec {
	if len(s.Engines) == 0 {
		s.Engines = []string{"hetis", "hexgen", "splitwise"}
	}
	if len(s.Models) == 0 {
		s.Models = []string{model.Llama13B.Name}
	}
	if len(s.Scenarios) == 0 {
		if len(s.Datasets) == 0 {
			s.Datasets = []string{"SG"}
		}
		if len(s.Rates) == 0 {
			s.Rates = []float64{5}
		}
	}
	if s.Duration <= 0 {
		s.Duration = 40
	}
	if s.Quick {
		s.Duration /= 4
		s.Quick = false
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// validate rejects rates and durations that are not finite and positive,
// dimension combinations Points would silently ignore, and scenarios a grid point cannot serve faithfully: a point runs the
// scenario's trace on one plain engine, with no chaos, tiers or shards.
func (s GridSpec) validate() error {
	for _, r := range s.Rates {
		if !finitePositive(r) {
			return fmt.Errorf("sweep: bad rate %v: must be finite and positive", r)
		}
	}
	if s.Duration != 0 && !finitePositive(s.Duration) {
		return fmt.Errorf("sweep: bad duration %v: must be finite and positive (0 takes the default)", s.Duration)
	}
	if len(s.Scenarios) > 0 && (len(s.Datasets) > 0 || len(s.Rates) > 0) {
		return fmt.Errorf("sweep: the scenario dimension excludes dataset and rate (scenarios carry their own traffic and mix)")
	}
	for _, name := range s.Scenarios {
		spec, err := scenario.ByName(name)
		if err != nil {
			return err
		}
		if spec.Chaotic() || spec.Sharded() {
			return fmt.Errorf("sweep: scenario %q needs chaos, tiers or shards that a grid point does not run; use -scenario %s", name, name)
		}
	}
	return nil
}

// Point is one grid coordinate.
type Point struct {
	Model   string
	Dataset string
	Rate    float64
	Engine  string
	// Scenario is set instead of Dataset/Rate on scenario grids.
	Scenario string
}

// Key renders the coordinate as "model/dataset/rate/engine" (or
// "model/scenario/engine" on scenario grids); it is the point's job key.
func (p Point) Key() string {
	if p.Scenario != "" {
		return fmt.Sprintf("%s/%s/%s", p.Model, p.Scenario, p.Engine)
	}
	return fmt.Sprintf("%s/%s/%s/%s", p.Model, p.Dataset, strconv.FormatFloat(p.Rate, 'g', -1, 64), p.Engine)
}

// Points expands the spec into the cartesian product, engines innermost so
// consecutive points replay the same trace.
func (s GridSpec) Points() []Point {
	s = s.withDefaults()
	var pts []Point
	for _, m := range s.Models {
		if len(s.Scenarios) > 0 {
			for _, sc := range s.Scenarios {
				for _, eng := range s.Engines {
					pts = append(pts, Point{Model: m, Scenario: sc, Engine: eng})
				}
			}
			continue
		}
		for _, ds := range s.Datasets {
			for _, rate := range s.Rates {
				for _, eng := range s.Engines {
					pts = append(pts, Point{Model: m, Dataset: ds, Rate: rate, Engine: eng})
				}
			}
		}
	}
	return pts
}

// GridHeader is the column layout of RunGrid and RunPoint tables. Goodput
// and Attain measure SLO attainment: against the scenario's SLO on
// scenario grids, against scenario.DefaultSLO otherwise.
var GridHeader = []string{
	"Model", "Scenario", "Dataset", "Rate(req/s)", "Engine",
	"Requests", "Completed", "Throughput(req/s)", "Goodput(req/s)", "Attain(%)",
	"NormLat-mean(s/tok)", "TTFT-p95(s)", "TPOT-p95(s)",
}

// RunPoint simulates one grid coordinate and returns its one-row table.
// The point's trace is a Poisson trace of its dataset and rate on the
// paper cluster, or its scenario's trace at the grid's Duration and Seed
// on the scenario's cluster. A non-empty traceDir
// records the run's event trace and writes it there (Options.TraceDir).
func RunPoint(s GridSpec, p Point, traceDir string) (*metrics.Table, error) {
	s = s.withDefaults()
	m, err := model.ByName(p.Model)
	if err != nil {
		return nil, err
	}
	var reqs []workload.Request
	slo := scenario.DefaultSLO
	cluster := hardware.PaperCluster()
	if p.Scenario != "" {
		spec, err := scenario.ByName(p.Scenario)
		if err != nil {
			return nil, err
		}
		spec = spec.WithDefaults()
		spec.Duration, spec.Seed = s.Duration, s.Seed
		slo = spec.SLO
		if cluster, err = scenario.ClusterByName(spec.Cluster); err != nil {
			return nil, err
		}
		if reqs, err = spec.Trace(); err != nil {
			return nil, err
		}
	} else {
		dist, err := workload.ByName(p.Dataset)
		if err != nil {
			return nil, err
		}
		reqs = workload.Poisson(dist, p.Rate, s.Duration, s.Seed)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("sweep: empty trace for %s", p.Key())
	}
	cfg := engine.DefaultConfig(m, cluster)
	// Grid rows never read the event trace; skipping it keeps pooled
	// workers from holding O(events) logs per in-flight point.
	cfg.NoTrace = traceDir == ""
	// Rows are computed from the sink's snapshot either way. The exact
	// recorder's snapshot runs the same accumulation the recorder methods
	// always ran, so the default output stays byte-identical; the streaming
	// sink swaps O(records) memory for the sketch bound.
	if s.Stream {
		cfg.Sink = metrics.NewStreamingSink(slo)
	} else {
		cfg.Sink = metrics.NewExactRecorder(slo)
	}
	eng, err := engine.NewByName(p.Engine, cfg, reqs)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(reqs, scenario.MeasurementHorizon(s.Duration))
	if err != nil {
		return nil, err
	}
	if err := writeTrace(traceDir, p.Key(), res.Trace); err != nil {
		return nil, err
	}
	scenarioCol, datasetCol, rateCol := "-", p.Dataset, any(p.Rate)
	if p.Scenario != "" {
		scenarioCol, datasetCol, rateCol = p.Scenario, "-", "-"
	}
	snap := res.Sink.Snapshot()
	tab := &metrics.Table{Header: GridHeader}
	tab.AddRow(p.Model, scenarioCol, datasetCol, rateCol, p.Engine,
		len(reqs), res.Completed, res.Throughput(),
		snap.Goodput(res.Horizon),
		100*snap.Attainment(),
		snap.NormLat.Mean,
		snap.TTFT.P95,
		snap.TPOT.P95)
	return tab, nil
}

// RunGrid sweeps the full grid on the pool and merges the per-point rows
// into one table in grid order — the dimension values exactly as the spec
// lists them, engines innermost — independent of completion order, so the
// output is byte-identical for any Options.Jobs value.
func RunGrid(s GridSpec, opts Options) (*metrics.Table, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	pts := s.Points()
	jobs := make([]Job, len(pts))
	for i, p := range pts {
		jobs[i] = Job{Key: p.Key(), Run: func() (*metrics.Table, error) {
			return RunPoint(s, p, opts.TraceDir)
		}}
	}
	results, err := RunMany(jobs, opts)
	if err != nil {
		return nil, err
	}
	tab := &metrics.Table{Header: GridHeader}
	for _, r := range results {
		tab.Rows = append(tab.Rows, r.Table.Rows...)
	}
	return tab, nil
}

// ParseDims folds "key=v1,v2,..." grid dimension specs into a GridSpec.
// Recognized keys: engine(s), dataset(s), rate(s), model(s), scenario(s),
// duration, seed. Later specs for the same key replace earlier ones.
func ParseDims(spec GridSpec, dims []string) (GridSpec, error) {
	for _, dim := range dims {
		key, vals, ok := strings.Cut(dim, "=")
		if !ok || vals == "" {
			return spec, fmt.Errorf("sweep: grid dimension %q is not key=v1,v2,...", dim)
		}
		parts := strings.Split(vals, ",")
		switch strings.TrimSuffix(strings.ToLower(key), "s") {
		case "engine":
			for _, e := range parts {
				if !slices.Contains(engine.Names, e) {
					return spec, errUnknownEngine(e)
				}
			}
			spec.Engines = parts
		case "dataset":
			spec.Datasets = parts
		case "scenario":
			for _, sc := range parts {
				if _, err := scenario.ByName(sc); err != nil {
					return spec, err
				}
			}
			spec.Scenarios = parts
		case "model":
			spec.Models = parts
		case "rate":
			rates := make([]float64, len(parts))
			for i, p := range parts {
				v, err := parsePositive("rate", p)
				if err != nil {
					return spec, err
				}
				rates[i] = v
			}
			spec.Rates = rates
		case "duration":
			v, err := parsePositive("duration", vals)
			if err != nil {
				return spec, err
			}
			spec.Duration = v
		case "seed":
			v, err := strconv.ParseInt(vals, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("sweep: bad seed %q: %w", vals, err)
			}
			spec.Seed = v
		default:
			return spec, fmt.Errorf("sweep: unknown grid dimension %q", key)
		}
	}
	return spec, nil
}

// finitePositive reports whether x is a usable rate or duration: an
// infinite rate would synthesize a trace without bound, and a zero one an
// empty trace.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// parsePositive parses one value of the rate or duration dimension.
func parsePositive(dim, v string) (float64, error) {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("sweep: bad %s %q: %w", dim, v, err)
	}
	if !finitePositive(x) {
		return 0, fmt.Errorf("sweep: bad %s %q: must be finite and positive", dim, v)
	}
	return x, nil
}
