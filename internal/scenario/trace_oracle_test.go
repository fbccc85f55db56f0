package scenario_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hetis/internal/fleet"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// sequentialTrace is the frozen single-goroutine Spec.Trace that the
// concurrent front door replaced: the arrival times from the Seed stream,
// then sequentialAssemble's mix draws from the Seed+1 stream.
func sequentialTrace(s scenario.Spec) ([]workload.Request, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	times := slices.Collect(s.Traffic.Arrivals(s.Duration, rand.New(rand.NewSource(s.Seed))))
	return sequentialAssemble(times, s.Mix, rand.New(rand.NewSource(s.Seed+1))), nil
}

// sequentialAssemble is the frozen workload.Assemble body: a defensive
// sorted copy of the times, then per arrival a tenant pick over the
// positive-weight entries and a (prompt, output) sample.
func sequentialAssemble(times []float64, mix []workload.MixEntry, rng *rand.Rand) []workload.Request {
	var total float64
	for _, e := range mix {
		if e.Weight > 0 {
			total += e.Weight
		}
	}
	if total == 0 {
		mix = []workload.MixEntry{{Dataset: workload.ShareGPT, Weight: 1}}
		total = 1
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	reqs := make([]workload.Request, 0, len(sorted))
	for i, t := range sorted {
		pick := rng.Float64() * total
		var e workload.MixEntry
		for _, cand := range mix {
			if cand.Weight <= 0 {
				continue
			}
			e = cand
			if pick < cand.Weight {
				break
			}
			pick -= cand.Weight
		}
		p, o := e.Dataset.Sample(rng)
		reqs = append(reqs, workload.Request{
			ID: int64(i), ArrivalAt: t, PromptLen: p, OutputLen: o, Tenant: e.Tenant,
		})
	}
	return reqs
}

// checkTraceMatchesSequential holds Spec.Trace to the frozen sequential
// trace for one spec.
func checkTraceMatchesSequential(t *testing.T, spec scenario.Spec) {
	t.Helper()
	got, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sequentialTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("trace has %d requests, sequential %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d = %+v, sequential %+v", i, got[i], want[i])
		}
	}
	t.Fatalf("trace %#v differs from the sequential %#v", got, want)
}

// TestTraceMatchesSequential holds the concurrent Spec.Trace (arrivals and
// mix draws on two goroutines, no defensive sort) to the frozen sequential
// one for every registered scenario at golden and quick size and three
// seeds, plus the benchmark's fleet-giga trace (1.25M requests) outside
// -short. The heavy scenarios' quick traces (up to 2.5M requests) run
// outside -short and the race detector only.
func TestTraceMatchesSequential(t *testing.T) {
	for _, name := range scenario.Names() {
		spec, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []string{"golden", "quick"} {
			sized := spec.ForGolden()
			if size == "quick" {
				if spec.Heavy && (testing.Short() || raceEnabled) {
					continue
				}
				sized = scenario.Prepare(spec, true)
			}
			for _, seed := range []int64{1, 2, 7} {
				sized.Seed = seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, size, seed), func(t *testing.T) {
					checkTraceMatchesSequential(t, sized)
				})
			}
		}
	}
	if testing.Short() {
		return
	}
	t.Run("fleet-giga/seed1", func(t *testing.T) {
		// benchmark/workloads.go's fleet-giga: gigascale for 7812.5 s.
		spec, err := scenario.ByName("gigascale")
		if err != nil {
			t.Fatal(err)
		}
		spec.Duration = 7812.5
		spec.Seed = 1
		checkTraceMatchesSequential(t, scenario.Prepare(spec, false))
	})
}

// TestStreamedShardsMatchPartition is the front door's differential at
// scale: every sharded registered scenario at golden and quick size, and
// the benchmark's fleet-giga trace (1.25M requests) outside -short, routed
// chunk by chunk as it is synthesized (Spec.Shards) must equal
// Router.Partition of the materialised Spec.Trace(), shard for shard.
// The heavy scenarios' quick traces run outside -short and the race
// detector only.
func TestStreamedShardsMatchPartition(t *testing.T) {
	var specs []scenario.Spec
	for _, name := range scenario.Names() {
		spec, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !spec.Sharded() {
			continue
		}
		specs = append(specs, spec.ForGolden())
		if !spec.Heavy || !(testing.Short() || raceEnabled) {
			specs = append(specs, scenario.Prepare(spec, true))
		}
	}
	if !testing.Short() && !raceEnabled {
		// benchmark/workloads.go's fleet-giga: gigascale for 7812.5 s.
		spec, err := scenario.ByName("gigascale")
		if err != nil {
			t.Fatal(err)
		}
		spec.Duration = 7812.5
		specs = append(specs, scenario.Prepare(spec, false))
	}
	for _, spec := range specs {
		t.Run(fmt.Sprintf("%s/%gs", spec.Name, spec.Duration), func(t *testing.T) {
			got, err := spec.Shards()
			if err != nil {
				t.Fatal(err)
			}
			reqs, err := spec.Trace()
			if err != nil {
				t.Fatal(err)
			}
			f := spec.WithDefaults().Fleet
			policy := f.Policy
			if policy == "" {
				policy = fleet.PolicyWeighted
			}
			router, err := fleet.NewRouter(policy, f.Shards, f.Weights)
			if err != nil {
				t.Fatal(err)
			}
			want := router.Partition(reqs)
			if len(got) != len(want) {
				t.Fatalf("%d shards, partition %d", len(got), len(want))
			}
			for s := range want {
				if !reflect.DeepEqual(got[s], want[s]) {
					t.Fatalf("shard %d holds %d requests, partition %d (of %d)", s, len(got[s]), len(want[s]), len(reqs))
				}
			}
		})
	}
}
