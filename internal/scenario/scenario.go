// Package scenario turns the simulator into a scenario catalog: a
// declarative Spec names a traffic shape (steady, bursty, diurnal,
// flash-crowd, closed-loop), a multi-tenant workload mix, a latency SLO,
// and the engines to run it on. Scenarios are registered by name, runnable
// standalone, through the sweep pool, or as a hetisbench flag, and every
// registered scenario is pinned by a golden-trace regression file under
// testdata/ so a scheduling change anywhere in the stack surfaces as a
// reviewable diff instead of a silent drift.
package scenario

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"slices"

	"hetis/internal/engine"
	"hetis/internal/fleet"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// Traffic kinds.
const (
	KindPoisson    = "poisson"
	KindMMPP       = "mmpp"
	KindDiurnal    = "diurnal"
	KindFlashCrowd = "flashcrowd"
	KindClosedLoop = "closedloop"
)

// Traffic declaratively describes an arrival process. Time-shape
// parameters (Cycles, SpikeStart, SpikeFrac) are fractions of the trace
// duration, so shrinking a scenario (Quick mode) shrinks the whole shape
// instead of pushing the interesting part past the end of the trace.
type Traffic struct {
	// Kind selects the process: poisson, mmpp, diurnal, flashcrowd,
	// closedloop.
	Kind string

	// Rate is the base arrival rate in req/s (poisson, diurnal,
	// flashcrowd).
	Rate float64

	// States is the cyclic MMPP state list (mmpp).
	States []workload.MMPPState

	// Amplitude is the diurnal rate swing as a fraction of Rate in [0, 1];
	// Cycles is how many full sinusoid periods fit in the trace
	// (default 1).
	Amplitude float64
	Cycles    float64

	// SpikeStart and SpikeFrac place the flash-crowd spike as fractions of
	// the trace duration; SpikeFactor multiplies Rate during the spike.
	SpikeStart  float64
	SpikeFrac   float64
	SpikeFactor float64

	// Users and Think describe the closed-loop population: Users sessions
	// each pausing Exp(Think) seconds between requests.
	Users int
	Think float64
}

// Validate reports traffic description errors.
func (t Traffic) Validate() error {
	// A NaN or infinite parameter would make the generators loop without
	// bound (an infinite rate never advances time) or emit nothing.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Rate", t.Rate}, {"Amplitude", t.Amplitude}, {"Cycles", t.Cycles},
		{"SpikeStart", t.SpikeStart}, {"SpikeFrac", t.SpikeFrac}, {"SpikeFactor", t.SpikeFactor},
		{"Think", t.Think},
	} {
		if !finite(f.v) {
			return fmt.Errorf("scenario: %s traffic %s is %g; it must be finite", t.Kind, f.name, f.v)
		}
	}
	for i, st := range t.States {
		if !finite(st.Rate) {
			return fmt.Errorf("scenario: mmpp state %d Rate is %g; it must be finite", i, st.Rate)
		}
		if !finite(st.MeanDwell) {
			return fmt.Errorf("scenario: mmpp state %d MeanDwell is %g; it must be finite", i, st.MeanDwell)
		}
	}
	switch t.Kind {
	case KindPoisson, KindDiurnal:
		if t.Rate <= 0 {
			return fmt.Errorf("scenario: %s traffic needs Rate > 0", t.Kind)
		}
	case KindFlashCrowd:
		if t.Rate <= 0 {
			return fmt.Errorf("scenario: %s traffic needs Rate > 0", t.Kind)
		}
		// A flash crowd without a real spike would silently degenerate to
		// steady Poisson under the scenario's label.
		if t.SpikeFrac <= 0 || t.SpikeFactor <= 0 {
			return fmt.Errorf("scenario: flashcrowd traffic needs SpikeFrac > 0 and SpikeFactor > 0")
		}
		if t.SpikeStart < 0 || t.SpikeStart+t.SpikeFrac > 1 {
			return fmt.Errorf("scenario: flashcrowd spike window [%g, %g] outside the trace (fractions of duration)",
				t.SpikeStart, t.SpikeStart+t.SpikeFrac)
		}
	case KindMMPP:
		if len(t.States) == 0 {
			return fmt.Errorf("scenario: mmpp traffic needs States")
		}
		for i, st := range t.States {
			if st.Rate < 0 || st.MeanDwell <= 0 {
				return fmt.Errorf("scenario: mmpp state %d invalid (rate %g, dwell %g)", i, st.Rate, st.MeanDwell)
			}
		}
	case KindClosedLoop:
		if t.Users <= 0 || t.Think <= 0 {
			return fmt.Errorf("scenario: closedloop traffic needs Users > 0 and Think > 0")
		}
	default:
		return fmt.Errorf("scenario: unknown traffic kind %q", t.Kind)
	}
	// A field the kind ignores would silently change nothing: an mmpp spec
	// with a Rate offers the same arrivals whatever the Rate.
	if name := t.ignoredField(); name != "" {
		return fmt.Errorf("scenario: %s traffic ignores %s; leave it unset", t.Kind, name)
	}
	return nil
}

// ignoredField names the first field t sets that its kind never reads, or
// returns "".
func (t Traffic) ignoredField() string {
	fields := []struct {
		name  string
		set   bool
		kinds []string // the kinds that read the field
	}{
		{"Rate", t.Rate != 0, []string{KindPoisson, KindDiurnal, KindFlashCrowd}},
		{"States", len(t.States) > 0, []string{KindMMPP}},
		{"Amplitude", t.Amplitude != 0, []string{KindDiurnal}},
		{"Cycles", t.Cycles != 0, []string{KindDiurnal}},
		{"SpikeStart", t.SpikeStart != 0, []string{KindFlashCrowd}},
		{"SpikeFrac", t.SpikeFrac != 0, []string{KindFlashCrowd}},
		{"SpikeFactor", t.SpikeFactor != 0, []string{KindFlashCrowd}},
		{"Users", t.Users != 0, []string{KindClosedLoop}},
		{"Think", t.Think != 0, []string{KindClosedLoop}},
	}
	for _, f := range fields {
		if f.set && !slices.Contains(f.kinds, t.Kind) {
			return f.name
		}
	}
	return ""
}

// Arrivals yields the arrival times over [0, duration), in ascending order.
func (t Traffic) Arrivals(duration float64, rng *rand.Rand) iter.Seq[float64] {
	switch t.Kind {
	case KindPoisson:
		return workload.PoissonArrivals(t.Rate, duration, rng)
	case KindMMPP:
		return workload.MMPPArrivals(t.States, duration, rng)
	case KindDiurnal:
		cycles := t.Cycles
		if cycles <= 0 {
			cycles = 1
		}
		return workload.DiurnalArrivals(t.Rate, t.Amplitude, duration/cycles, duration, rng)
	case KindFlashCrowd:
		return workload.FlashCrowdArrivals(t.Rate, t.SpikeStart*duration, t.SpikeFrac*duration, t.SpikeFactor, duration, rng)
	case KindClosedLoop:
		return workload.ClosedLoopArrivals(t.Users, t.Think, duration, rng)
	}
	return func(func(float64) bool) {}
}

// MeanRate estimates the long-run offered rate in req/s, for display.
func (t Traffic) MeanRate() float64 {
	switch t.Kind {
	case KindPoisson, KindDiurnal:
		return t.Rate
	case KindFlashCrowd:
		return t.Rate * (1 + t.SpikeFrac*(t.SpikeFactor-1))
	case KindMMPP:
		var rate, dwell float64
		for _, st := range t.States {
			rate += st.Rate * st.MeanDwell
			dwell += st.MeanDwell
		}
		if dwell == 0 {
			return 0
		}
		return rate / dwell
	case KindClosedLoop:
		if t.Think == 0 {
			return 0
		}
		return float64(t.Users) / t.Think
	}
	return 0
}

// DefaultSLO is the latency objective scenarios inherit when they do not
// set one: first token within 1.5 s, then 0.1 s per token (a conversational
// read-speed target tight enough that overloaded engines visibly miss it).
var DefaultSLO = metrics.SLOTarget{TTFT: 1.5, TPOT: 0.1}

// FailureEvent takes one replica out of service for a window of the trace.
// Start and End are fractions of Duration (like the flash-crowd spike), so
// Quick scaling shrinks the outage with the trace; End past 1 reaches into
// the drain tail. HaulKV decides whether the victims' KV cache migrates to
// survivors over the interconnect or is lost (full re-prefill).
type FailureEvent struct {
	Replica    int
	Start, End float64
	HaulKV     bool
}

// AutoscaleSpec is the scenario face of the SLO-driven replica controller.
// Interval and Lag are fractions of Duration; thresholds are attainment
// fractions in [0, 1]. The controller measures against the spec's SLO.
type AutoscaleSpec struct {
	MinReplicas, MaxReplicas int
	Interval, Lag            float64
	UpBelow, DownAbove       float64
}

// TierSpec is one priority class of a tiered scenario: the tenants it
// covers (empty = catch-all), its preemption priority, and an optional
// admission cap on in-flight requests.
type TierSpec struct {
	Name        string
	Tenants     []string
	Priority    int
	MaxInflight int
}

// FleetSpec shards a scenario across independent cluster replicas behind
// a front-door router (see internal/fleet). Each shard serves its routed
// slice of the trace on its own engine, event queue, trace arena and
// sink, concurrently with its siblings; the results merge in shard-index
// order, so the scenario's output is byte-identical at any shard-worker
// count.
type FleetSpec struct {
	// Shards is the replica count (>= 1; 2+ for anything interesting).
	Shards int
	// Policy is the routing policy: fleet.PolicyWeighted (the default),
	// fleet.PolicyLeastLoaded, or fleet.PolicyAffinity.
	Policy string
	// Weights optionally skews routing shares, one positive weight per
	// shard (nil = uniform).
	Weights []float64
}

// policy resolves the default routing policy.
func (f *FleetSpec) policy() string {
	if f.Policy == "" {
		return fleet.PolicyWeighted
	}
	return f.Policy
}

// Spec is a declarative serving scenario.
type Spec struct {
	Name        string
	Description string

	// Traffic is the arrival process.
	Traffic Traffic
	// Mix is the weighted multi-tenant workload mix; empty means
	// single-tenant ShareGPT.
	Mix []workload.MixEntry
	// SLO is the latency objective goodput is measured against; zero takes
	// DefaultSLO.
	SLO metrics.SLOTarget

	// Model and Cluster pick the deployment; defaults: Llama-13B on the
	// paper cluster. Cluster is a hardware.ParseCluster name ("paper" or
	// a list like "4xA100,4x3090").
	Model   string
	Cluster string
	// Engines lists the systems to run, in row order; default hetis,
	// hexgen, splitwise.
	Engines []string

	// Duration is the trace length in simulated seconds (default 40);
	// Seed drives all sampling (default 1).
	Duration float64
	Seed     int64

	// Replicas is the initial fleet width: the engine's deployment is
	// replicated that many times (0 or 1 = the legacy single deployment).
	Replicas int
	// FailurePlan schedules replica failures over the trace.
	FailurePlan []FailureEvent
	// Autoscale enables the SLO-driven replica controller.
	Autoscale *AutoscaleSpec
	// Tiers splits the tenants into priority classes with admission control
	// and preemption.
	Tiers []TierSpec

	// Fleet shards the run across independent cluster replicas behind a
	// deterministic front-door router — the intra-run parallelism layer.
	// Mutually exclusive with the chaos fields above: chaos rewires one
	// cluster's replica set from inside the engine, Fleet replicates whole
	// clusters from outside it.
	Fleet *FleetSpec

	// Heavy marks large-scale scenarios (megascale and friends) that
	// catalog-wide expansions — "-scenario all" and the scenarios
	// experiment — skip unless the scenario is named explicitly.
	// Heavy scenarios are built for the streaming sink; running them with
	// the exact recorder works but holds O(requests) memory.
	Heavy bool
	// GoldenDuration is the trace length the golden-trace harness pins the
	// scenario at. Zero means Duration. Heavy scenarios must set it: a
	// million-request exact replay per `go test` is exactly what the
	// golden referee must not cost, while a shortened trace still pins
	// every scheduling path byte-for-byte.
	GoldenDuration float64
}

// WithDefaults fills unset fields.
func (s Spec) WithDefaults() Spec {
	if s.SLO.IsZero() {
		s.SLO = DefaultSLO
	}
	if s.Model == "" {
		s.Model = model.Llama13B.Name
	}
	if s.Cluster == "" {
		s.Cluster = "paper"
	}
	if len(s.Engines) == 0 {
		s.Engines = []string{"hetis", "hexgen", "splitwise"}
	}
	if s.Duration <= 0 {
		s.Duration = 40
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate reports spec errors. It validates the defaulted spec, so a
// partially specified spec is fine.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if !finite(s.Duration) {
		return fmt.Errorf("scenario %s: Duration is %g; it must be finite", s.Name, s.Duration)
	}
	if !finite(s.GoldenDuration) {
		return fmt.Errorf("scenario %s: GoldenDuration is %g; it must be finite", s.Name, s.GoldenDuration)
	}
	if err := s.Traffic.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := workload.ValidateMix(s.Mix); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := model.ByName(s.Model); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := ClusterByName(s.Cluster); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	for _, e := range s.Engines {
		if !engine.Known(e) {
			return fmt.Errorf("scenario %s: unknown engine %q", s.Name, e)
		}
	}
	if s.GoldenDuration < 0 {
		return fmt.Errorf("scenario %s: negative GoldenDuration %g", s.Name, s.GoldenDuration)
	}
	if s.Heavy && s.GoldenDuration <= 0 {
		return fmt.Errorf("scenario %s: heavy scenarios must set GoldenDuration (the golden harness cannot replay them at full scale)", s.Name)
	}
	for i, fe := range s.FailurePlan {
		if !finite(fe.Start) || !finite(fe.End) || fe.Start < 0 || fe.End <= fe.Start {
			return fmt.Errorf("scenario %s: failure %d: bad window fractions [%g, %g)", s.Name, i, fe.Start, fe.End)
		}
	}
	// The engine layer validates the compiled form (autoscale bounds and
	// thresholds, tier names, replica counts).
	if err := s.chaosConfig().Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if f := s.Fleet; f != nil {
		if s.chaosConfig() != nil {
			return fmt.Errorf("scenario %s: Fleet cannot combine with chaos fields (Replicas/FailurePlan/Autoscale/Tiers) — chaos rewires one cluster, Fleet replicates clusters", s.Name)
		}
		// The router constructor owns shard/policy/weight validation.
		if _, err := fleet.NewRouter(f.policy(), f.Shards, f.Weights); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Sharded reports whether the spec runs as a fleet of shards. Sharded
// scenarios are excluded from SuiteNames like chaotic ones: catalog-wide
// expansions keep their single-cluster baselines comparable, and fleet
// scaling is measured by the benchmark's fleet-giga workload.
func (s Spec) Sharded() bool { return s.Fleet != nil }

// Chaotic reports whether the spec's chaos fields can change behaviour:
// chaotic scenarios get extra table columns and are excluded from
// SuiteNames (catalog-wide expansions keep their healthy baselines).
func (s Spec) Chaotic() bool {
	return s.WithDefaults().chaosConfig().Active()
}

// chaosConfig compiles the spec's chaos fields for the engine layer,
// scaling fractional times by the (possibly Quick-shrunk) Duration. Call
// on a defaulted spec; returns nil when no chaos field is set.
func (s Spec) chaosConfig() *engine.ChaosConfig {
	if s.Replicas == 0 && len(s.FailurePlan) == 0 && s.Autoscale == nil && len(s.Tiers) == 0 {
		return nil
	}
	c := &engine.ChaosConfig{Replicas: s.Replicas}
	for _, fe := range s.FailurePlan {
		c.Failures = append(c.Failures, engine.FailureWindow{
			Replica: fe.Replica,
			Start:   fe.Start * s.Duration,
			End:     fe.End * s.Duration,
			HaulKV:  fe.HaulKV,
		})
	}
	if a := s.Autoscale; a != nil {
		c.Autoscale = &engine.AutoscalePolicy{
			MinReplicas: a.MinReplicas,
			MaxReplicas: a.MaxReplicas,
			Interval:    a.Interval * s.Duration,
			Lag:         a.Lag * s.Duration,
			UpBelow:     a.UpBelow,
			DownAbove:   a.DownAbove,
			SLO:         s.SLO,
		}
	}
	for _, t := range s.Tiers {
		c.Tiers = append(c.Tiers, engine.Tier{
			Name:        t.Name,
			Tenants:     t.Tenants,
			Priority:    t.Priority,
			MaxInflight: t.MaxInflight,
		})
	}
	return c
}

// tierOf maps a tenant to its tier name under the spec's tier list (the
// tier listing the tenant, else the catch-all), or "" when untiered.
// Validate refuses a tenant that two tiers list.
func (s Spec) tierOf(tenant string) string {
	catchAll := ""
	for _, t := range s.Tiers {
		if len(t.Tenants) == 0 {
			catchAll = t.Name
			continue
		}
		for _, tn := range t.Tenants {
			if tn == tenant {
				return t.Name
			}
		}
	}
	return catchAll
}

// Trace generates the scenario's request trace: arrival times from the
// traffic process, tenants and lengths from the mix. Deterministic in
// (spec, Seed).
func (s Spec) Trace() ([]workload.Request, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return workload.Synthesize(s.arrivals(), s.expected(), s.Mix, s.Seed+1), nil
}

// arrivals is the traffic process of a defaulted spec, seeded by Seed.
// The mix draws from an independent stream (Seed+1) so reshaping traffic
// does not reshuffle tenant assignments and lengths; being independent,
// the two streams are drawn concurrently.
func (s Spec) arrivals() iter.Seq[float64] {
	return s.Traffic.Arrivals(s.Duration, rand.New(rand.NewSource(s.Seed)))
}

// expected estimates a defaulted spec's request count, to pre-size traces.
func (s Spec) expected() float64 { return s.Traffic.MeanRate() * s.Duration }
