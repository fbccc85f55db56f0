package scenario

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"hetis/internal/workload"
)

func TestRegistryBuiltins(t *testing.T) {
	names := Names()
	for _, want := range []string{"steady", "bursty", "diurnal", "flashcrowd", "multitenant", "closedloop"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin scenario %q not registered (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	if _, err := ByName("steady"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("no-such"); err == nil || !strings.Contains(err.Error(), "no-such") {
		t.Errorf("ByName(no-such) = %v, want error naming it", err)
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	if err := Register(Spec{Name: "steady", Traffic: Traffic{Kind: KindPoisson, Rate: 1}}); err == nil {
		t.Error("duplicate registration should error")
	}
	bad := []Spec{
		{Name: "", Traffic: Traffic{Kind: KindPoisson, Rate: 1}},
		{Name: "x", Traffic: Traffic{Kind: "warp", Rate: 1}},
		{Name: "x", Traffic: Traffic{Kind: KindPoisson}},
		{Name: "x", Traffic: Traffic{Kind: KindMMPP}},
		{Name: "x", Traffic: Traffic{Kind: KindClosedLoop}},
		// Flash crowds with no real spike, or a window past the trace end,
		// must not register as if they spiked.
		{Name: "x", Traffic: Traffic{Kind: KindFlashCrowd, Rate: 2, SpikeFactor: 6}},
		{Name: "x", Traffic: Traffic{Kind: KindFlashCrowd, Rate: 2, SpikeFrac: 0.2}},
		{Name: "x", Traffic: Traffic{Kind: KindFlashCrowd, Rate: 2, SpikeStart: 0.9, SpikeFrac: 0.2, SpikeFactor: 6}},
		{Name: "x", Traffic: Traffic{Kind: KindPoisson, Rate: 1}, Model: "no-model"},
		{Name: "x", Traffic: Traffic{Kind: KindPoisson, Rate: 1}, Cluster: "no-cluster"},
		{Name: "x", Traffic: Traffic{Kind: KindPoisson, Rate: 1}, Engines: []string{"warp"}},
		{Name: "x", Traffic: Traffic{Kind: KindPoisson, Rate: 1}, Mix: []workload.MixEntry{{Tenant: "a", Weight: 1}}},
	}
	for _, s := range bad {
		if err := Register(s); err == nil {
			t.Errorf("Register(%+v) succeeded, want error", s)
		}
	}
}

// TestTrafficValidateRefusesIgnoredFields pins that a field the traffic
// kind never reads is an error naming the field, not a silent no-op, and
// that every registered scenario sets only fields its kind reads.
func TestTrafficValidateRefusesIgnoredFields(t *testing.T) {
	states := []workload.MMPPState{{Rate: 10, MeanDwell: 1}}
	spike := Traffic{Kind: KindFlashCrowd, Rate: 2, SpikeStart: 0.4, SpikeFrac: 0.2, SpikeFactor: 6}
	cases := []struct {
		traffic Traffic
		field   string
	}{
		{Traffic{Kind: KindMMPP, States: states, Rate: 8}, "Rate"},
		{Traffic{Kind: KindMMPP, States: states, Users: 4}, "Users"},
		{Traffic{Kind: KindPoisson, Rate: 5, States: states}, "States"},
		{Traffic{Kind: KindPoisson, Rate: 5, Amplitude: 0.5}, "Amplitude"},
		{Traffic{Kind: KindPoisson, Rate: 5, Cycles: 2}, "Cycles"},
		{Traffic{Kind: KindDiurnal, Rate: 4, SpikeFactor: 6}, "SpikeFactor"},
		{Traffic{Kind: KindDiurnal, Rate: 4, Think: 8}, "Think"},
		{Traffic{Kind: KindFlashCrowd, Rate: 2, SpikeStart: 0.4, SpikeFrac: 0.2, SpikeFactor: 6, Amplitude: 0.3}, "Amplitude"},
		{Traffic{Kind: KindClosedLoop, Users: 48, Think: 8, Rate: 6}, "Rate"},
		{Traffic{Kind: KindClosedLoop, Users: 48, Think: 8, SpikeStart: 0.1}, "SpikeStart"},
		{Traffic{Kind: KindClosedLoop, Users: 48, Think: 8, SpikeFrac: 0.1}, "SpikeFrac"},
		{Traffic{Kind: KindClosedLoop, Users: 48, Think: 8, States: states}, "States"},
		{Traffic{Kind: KindPoisson, Rate: 5, Users: 1}, "Users"},
	}
	for _, c := range cases {
		err := c.traffic.Validate()
		if err == nil || !strings.Contains(err.Error(), " "+c.field+";") {
			t.Errorf("Validate(%+v) = %v, want an error naming %s", c.traffic, err, c.field)
		}
	}
	if err := spike.Validate(); err != nil {
		t.Errorf("a flash crowd setting only its own fields: %v", err)
	}
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Traffic.Validate(); err != nil {
			t.Errorf("registered scenario %s: %v", name, err)
		}
	}
}

// TestValidateRefusesNonFinite pins that every float field of a spec is
// refused, by name, when it is NaN or infinite: an infinite Rate or
// Duration would make Trace append without bound, and a non-finite mix
// Weight would assign tenants wrongly.
func TestValidateRefusesNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	steady := func(tr Traffic) Spec {
		return Spec{Name: "x", Traffic: tr, Engines: []string{"vllm"}}
	}
	poisson := Traffic{Kind: KindPoisson, Rate: 2}
	diurnal := Traffic{Kind: KindDiurnal, Rate: 2, Amplitude: 0.5, Cycles: 2}
	flash := Traffic{Kind: KindFlashCrowd, Rate: 2, SpikeStart: 0.4, SpikeFrac: 0.2, SpikeFactor: 6}
	closed := Traffic{Kind: KindClosedLoop, Users: 8, Think: 4}
	mmpp := func(rate, dwell float64) Traffic {
		return Traffic{Kind: KindMMPP, States: []workload.MMPPState{{Rate: 6, MeanDwell: 2}, {Rate: rate, MeanDwell: dwell}}}
	}
	mix := func(w float64) []workload.MixEntry {
		return []workload.MixEntry{{Tenant: "chat", Dataset: workload.ShareGPT, Weight: 1}, {Tenant: "code", Dataset: workload.HumanEval, Weight: w}}
	}
	with := func(tr Traffic, set func(*Traffic)) Traffic {
		set(&tr)
		return tr
	}
	cases := []struct {
		spec  Spec
		field string
	}{
		{steady(with(poisson, func(t *Traffic) { t.Rate = inf })), "Rate"},
		{steady(with(poisson, func(t *Traffic) { t.Rate = nan })), "Rate"},
		{steady(with(poisson, func(t *Traffic) { t.Rate = -inf })), "Rate"},
		{steady(with(diurnal, func(t *Traffic) { t.Amplitude = nan })), "Amplitude"},
		{steady(with(diurnal, func(t *Traffic) { t.Cycles = nan })), "Cycles"},
		{steady(with(diurnal, func(t *Traffic) { t.Cycles = inf })), "Cycles"},
		{steady(with(flash, func(t *Traffic) { t.SpikeStart = nan })), "SpikeStart"},
		{steady(with(flash, func(t *Traffic) { t.SpikeFrac = nan })), "SpikeFrac"},
		{steady(with(flash, func(t *Traffic) { t.SpikeFactor = inf })), "SpikeFactor"},
		{steady(with(closed, func(t *Traffic) { t.Think = nan })), "Think"},
		{steady(with(closed, func(t *Traffic) { t.Think = inf })), "Think"},
		{steady(mmpp(inf, 1)), "state 1 Rate"},
		{steady(mmpp(nan, 1)), "state 1 Rate"},
		{steady(mmpp(1, inf)), "state 1 MeanDwell"},
		{steady(mmpp(1, nan)), "state 1 MeanDwell"},
		{Spec{Name: "x", Traffic: poisson, Duration: inf}, "Duration"},
		{Spec{Name: "x", Traffic: poisson, Duration: nan}, "Duration"},
		{Spec{Name: "x", Traffic: poisson, GoldenDuration: inf}, "GoldenDuration"},
		{Spec{Name: "x", Traffic: poisson, Mix: mix(inf)}, "Weight"},
		{Spec{Name: "x", Traffic: poisson, Mix: mix(nan)}, "Weight"},
		{Spec{Name: "x", Traffic: poisson, Mix: mix(-inf)}, "Weight"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), " "+c.field+" is ") {
			t.Errorf("Validate(%+v) = %v, want an error naming %s", c.spec.Traffic, err, c.field)
		}
		if _, err := c.spec.Trace(); err == nil {
			t.Errorf("Trace(%+v) succeeded, want the validation error", c.spec.Traffic)
		}
	}
	nanWindow := Spec{Name: "x", Traffic: poisson, Replicas: 2, FailurePlan: []FailureEvent{{Replica: 0, Start: nan, End: 0.5}}}
	if err := nanWindow.Validate(); err == nil || !strings.Contains(err.Error(), "failure 0") {
		t.Errorf("Validate with a NaN failure window = %v, want an error naming failure 0", err)
	}
	for _, tr := range []Traffic{poisson, diurnal, flash, closed, mmpp(1, 1)} {
		if err := steady(tr).Validate(); err != nil {
			t.Errorf("finite %s traffic: %v", tr.Kind, err)
		}
	}
}

func TestTraceDeterministicAndSorted(t *testing.T) {
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec = Prepare(spec, true)
		a, err := spec.Trace()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := spec.Trace()
		if len(a) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic trace length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between identical generations", name, i)
			}
			if i > 0 && a[i].ArrivalAt < a[i-1].ArrivalAt {
				t.Fatalf("%s: arrivals not sorted at %d", name, i)
			}
			if a[i].ID != int64(i) {
				t.Fatalf("%s: IDs not sequential at %d", name, i)
			}
			if a[i].ArrivalAt < 0 || a[i].ArrivalAt >= spec.Duration {
				t.Fatalf("%s: arrival %g outside [0,%g)", name, a[i].ArrivalAt, spec.Duration)
			}
		}
	}
}

func TestTrafficShapes(t *testing.T) {
	// Flash crowd: the spike window must hold a disproportionate share of
	// arrivals.
	spec, _ := ByName("flashcrowd")
	spec = spec.WithDefaults()
	reqs, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Traffic
	lo, hi := tr.SpikeStart*spec.Duration, (tr.SpikeStart+tr.SpikeFrac)*spec.Duration
	in := 0
	for _, r := range reqs {
		if r.ArrivalAt >= lo && r.ArrivalAt < hi {
			in++
		}
	}
	frac := float64(in) / float64(len(reqs))
	if frac < 2*tr.SpikeFrac {
		t.Errorf("spike window holds %.0f%% of arrivals, want well above its %.0f%% time share", 100*frac, 100*tr.SpikeFrac)
	}

	// Multi-tenant: every tenant of the mix shows up with roughly its
	// weight share.
	spec, _ = ByName("multitenant")
	spec = spec.WithDefaults()
	reqs, err = spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.Tenant]++
	}
	var totalW float64
	for _, e := range spec.Mix {
		totalW += e.Weight
	}
	for _, e := range spec.Mix {
		got := float64(counts[e.Tenant]) / float64(len(reqs))
		want := e.Weight / totalW
		if got < want/2 || got > want*2 {
			t.Errorf("tenant %s share %.2f, want around %.2f", e.Tenant, got, want)
		}
	}
}

func TestMeanRate(t *testing.T) {
	cases := []struct {
		tr   Traffic
		want float64
	}{
		{Traffic{Kind: KindPoisson, Rate: 5}, 5},
		{Traffic{Kind: KindDiurnal, Rate: 4, Amplitude: 0.8}, 4},
		{Traffic{Kind: KindFlashCrowd, Rate: 3, SpikeFrac: 0.1, SpikeFactor: 6}, 4.5},
		{Traffic{Kind: KindMMPP, States: []workload.MMPPState{{Rate: 10, MeanDwell: 1}, {Rate: 2, MeanDwell: 3}}}, 4},
		{Traffic{Kind: KindClosedLoop, Users: 48, Think: 8}, 6},
	}
	for _, c := range cases {
		if got := c.tr.MeanRate(); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("MeanRate(%s) = %g, want %g", c.tr.Kind, got, c.want)
		}
	}
}

func TestRunEngineRows(t *testing.T) {
	spec, _ := ByName("multitenant")
	tab, _, err := RunEngineSink(spec, "splitwise", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("multitenant rows = %d, want 4 (all + 3 tenants):\n%s", len(tab.Rows), tab)
	}
	if tab.Rows[0][2] != "all" {
		t.Errorf("first row tenant = %q, want all", tab.Rows[0][2])
	}
	for i, tenant := range []string{"batch", "chat", "code"} {
		if tab.Rows[i+1][2] != tenant {
			t.Errorf("row %d tenant = %q, want %q (sorted)", i+1, tab.Rows[i+1][2], tenant)
		}
	}

	spec, _ = ByName("steady")
	tab, _, err = RunEngineSink(spec, "splitwise", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("single-tenant scenario rows = %d, want 1:\n%s", len(tab.Rows), tab)
	}

	if _, _, err := RunEngineSink(spec, "warp", Options{Quick: true}); err == nil {
		t.Error("unknown engine should error")
	}
}

// TestByNameRegisterNoDeadlock pins the fix for a recursive-RLock
// deadlock: ByName's unknown-name path used to call Names() while holding
// regMu.RLock, which queued behind any writer waiting in Register.
func TestByNameRegisterNoDeadlock(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					ByName("no-such-scenario")
					// Valid spec, duplicate name: passes validation and
					// errors only under the write lock, so it contends.
					Register(Spec{Name: "steady", Traffic: Traffic{Kind: KindPoisson, Rate: 1}})
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("registry deadlocked: ByName vs Register")
	}
}
