package bench

import (
	"fmt"
	"runtime"
	"time"

	"hetis/internal/scenario"
	"hetis/internal/trace"
)

// FleetRow is one shard-worker setting of the fleet-scaling section: the
// fleet scenario served with up to ShardWorkers shards running
// concurrently. Events and Completed are identical on every row — the
// merged run is byte-deterministic in the worker count — so the rows
// differ only in wall-clock, and SpeedupVs1 is the intra-run parallel
// speedup over the single-worker row. LiveHeapBytes is the post-run
// live-heap delta with the merged result still referenced (forced GC on
// both sides), the resident cost of the fleet's streaming measurement.
type FleetRow struct {
	ShardWorkers  int     `json:"shard_workers"`
	WallSeconds   float64 `json:"wall_seconds"`
	Events        uint64  `json:"events"`
	EventsPerSec  float64 `json:"events_per_sec"`
	Completed     int     `json:"completed"`
	SpeedupVs1    float64 `json:"speedup_vs_1"`
	LiveHeapBytes int64   `json:"live_heap_bytes"`
}

// FleetScaling is the schema-v4 shard-scaling section: one fleet scenario
// measured at increasing shard-worker counts through streaming sinks.
type FleetScaling struct {
	Scenario string     `json:"scenario"`
	Engine   string     `json:"engine"`
	Shards   int        `json:"shards"`
	Policy   string     `json:"policy"`
	Rows     []FleetRow `json:"rows"`
}

// measureFleet times the fleet scenario's first engine at each worker
// count, best of repeat runs per row, through streaming sinks (the only
// mode that holds at gigascale). Preparation — trace generation, routing,
// per-shard engine construction — happens outside the clock, fresh per
// repeat (a FleetRun is single-use: its streaming sinks accumulate). The
// spec arrives already Prepared; PrepareFleet's own Prepare pass is then
// a no-op beyond defaulting.
func measureFleet(spec scenario.Spec, workersList []int, repeat int) (*FleetScaling, error) {
	if !spec.Sharded() {
		return nil, fmt.Errorf("bench: fleet scenario %s has no Fleet spec", spec.Name)
	}
	engName := spec.Engines[0]
	fs := &FleetScaling{
		Scenario: spec.Name,
		Engine:   engName,
		Shards:   spec.Fleet.Shards,
		Policy:   spec.Fleet.Policy,
	}
	opts := scenario.Options{Stream: true}
	for _, workers := range workersList {
		row := FleetRow{ShardWorkers: workers}
		for rep := 0; rep < repeat; rep++ {
			fr, err := scenario.PrepareFleet(spec, engName, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: fleet %s/%s: %w", spec.Name, engName, err)
			}
			trace.ResetPagePool()
			var beforeGC runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&beforeGC)
			t0 := time.Now()
			res, err := fr.Run(workers)
			wall := time.Since(t0).Seconds()
			if err != nil {
				return nil, fmt.Errorf("bench: fleet %s/%s: %w", spec.Name, engName, err)
			}
			runtime.GC()
			var afterGC runtime.MemStats
			runtime.ReadMemStats(&afterGC)
			// Keep the FleetRun reachable through both measurements: its
			// routed trace is in the before-baseline, so letting the GC take
			// it mid-delta would subtract the trace from the result's cost.
			runtime.KeepAlive(fr)
			if rep == 0 || wall < row.WallSeconds {
				row.WallSeconds = wall
				row.Events = res.Events
				row.Completed = res.Completed
				row.LiveHeapBytes = int64(afterGC.HeapAlloc) - int64(beforeGC.HeapAlloc)
			}
			runtime.KeepAlive(res)
		}
		if row.WallSeconds > 0 {
			row.EventsPerSec = float64(row.Events) / row.WallSeconds
		}
		fs.Rows = append(fs.Rows, row)
	}
	// Speedups against the slowest-is-not-assumed single-worker row; a
	// missing 1-worker row leaves them zero.
	for _, base := range fs.Rows {
		if base.ShardWorkers != 1 || base.WallSeconds <= 0 {
			continue
		}
		for i := range fs.Rows {
			fs.Rows[i].SpeedupVs1 = base.WallSeconds / fs.Rows[i].WallSeconds
		}
		break
	}
	return fs, nil
}

// measureShardedScenario is the suite-row face of a fleet scenario named
// explicitly on the bench command line: every engine the spec lists,
// served through the fleet runner at the default worker count (one per
// CPU, clamped to the shard count), best of repeat runs. The sweep cache
// is not consulted — it keys engines by (scenario, duration, seed), which
// cannot tell shards of one run apart.
func measureShardedScenario(spec scenario.Spec, repeat int, stream bool) ([]ScenarioBench, error) {
	workers := runtime.NumCPU()
	if workers > spec.Fleet.Shards {
		workers = spec.Fleet.Shards
	}
	var out []ScenarioBench
	for _, engName := range spec.Engines {
		sb := ScenarioBench{
			Scenario:     spec.Name,
			Engine:       engName,
			Shards:       spec.Fleet.Shards,
			ShardWorkers: workers,
		}
		if stream {
			sb.Sink = "streaming"
		}
		for rep := 0; rep < repeat; rep++ {
			fr, err := scenario.PrepareFleet(spec, engName, scenario.Options{Stream: stream})
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", spec.Name, engName, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			res, err := fr.Run(workers)
			wall := time.Since(t0).Seconds()
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", spec.Name, engName, err)
			}
			if rep == 0 || wall < sb.WallSeconds {
				sb.WallSeconds = wall
				sb.Events = res.Events
				sb.Completed = res.Completed
				sb.LPSolves = res.LPSolves
				sb.LPSolvesAvoided = res.LPSolvesAvoided
				sb.LPIdealSolves = res.LPIdealSolves
				sb.LPPatchedRows = res.LPPatchedRows
				if res.Events > 0 {
					sb.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(res.Events)
					sb.AllocBytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Events)
				}
			}
			if rep == 0 || res.LPSolveSeconds < sb.LPSolveSeconds {
				sb.LPSolveSeconds = res.LPSolveSeconds
			}
			if res.Trace != nil {
				res.Trace.Release()
			}
		}
		if sb.WallSeconds > 0 {
			sb.EventsPerSec = float64(sb.Events) / sb.WallSeconds
		}
		out = append(out, sb)
	}
	return out, nil
}
