// Package sweep fans independent simulation runs out over a bounded worker
// pool and collects their tables deterministically.
//
// The unit of work is a [Job]: a key plus a function producing a
// [metrics.Table]. [RunMany] executes a batch of jobs on up to Jobs worker
// goroutines (0 = one per CPU) and returns the results in job order,
// independent of completion order, so a sweep's output is byte-identical
// whether it ran on one worker or eight.
//
// Every job builds its own trace and engine: traces, plans and profile
// fits are seeded, deterministic functions of their inputs, so two runs
// of the same point compute the same bytes without sharing any state.
// A grid sweep over {engine × dataset × rate × model} points ([GridSpec],
// [RunGrid]) is one job per point. Jobs delegate the run to
// internal/scenario: a grid point serves its pre-built trace as a
// scenario.Job, whose builder sets the point's sink and trace switch, and
// a scenario pair ([RunScenariosSink]) runs scenario.PrepareFleet and
// FleetRun.Run. The default config and the run itself live there: this
// package constructs an engine only inside the builder it hands to
// scenario, and calls no Engine.Run.
package sweep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hetis/internal/metrics"
	"hetis/internal/sweep/pool"
	"hetis/internal/trace"
)

// Options tunes a pool run.
type Options struct {
	// Jobs bounds the number of concurrently executing jobs; 0 (or
	// negative) means one worker per CPU.
	Jobs int
	// ShardWorkers bounds the intra-run shard concurrency of sharded
	// (fleet) scenarios in the batch; 0 means one worker per CPU. Output
	// is byte-identical at every value — this knob trades wall-clock only.
	// Unsharded runs ignore it.
	ShardWorkers int
	// TraceDir, when set, makes every grid point and exact scenario run
	// write its event trace (a sharded run's merged fleet trace) as JSONL
	// to TraceDir/<job key, '/' replaced by '_'>.jsonl.
	TraceDir string
}

// Job is one unit of pool work.
type Job struct {
	// Key names the job in its result and in its error.
	Key string
	// Run produces the job's table. It must be safe to call concurrently
	// with other jobs.
	Run func() (*metrics.Table, error)
}

// Result pairs a job key with its outcome.
type Result struct {
	Key   string
	Table *metrics.Table
	Err   error
}

// RunMany executes the jobs on a bounded worker pool and returns one result
// per job, in job order (results[i] is jobs[i]'s). A failed job carries its
// error in Result.Err. The returned error joins all job errors in the same
// order, so callers that only care about overall success can check it
// alone. Every job runs to completion — a failure does not cancel its
// siblings, which keeps the set of executed work independent of
// scheduling.
func RunMany(jobs []Job, opts Options) ([]Result, error) {
	results := make([]Result, len(jobs))
	pool.Each(len(jobs), opts.Jobs, func(i int) {
		tab, err := jobs[i].Run()
		if err != nil {
			err = fmt.Errorf("sweep: job %s: %w", jobs[i].Key, err)
		}
		results[i] = Result{Key: jobs[i].Key, Table: tab, Err: err}
	})
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return results, errors.Join(errs...)
}

// writeTrace writes a run's event trace to dir/<key, '/' replaced by
// '_'>.jsonl, creating dir if needed; an empty dir writes nothing. A
// streaming scenario run records no trace, so it has none to write.
func writeTrace(dir, key string, log *trace.Log) error {
	if dir == "" {
		return nil
	}
	if log == nil {
		return fmt.Errorf("sweep: run %s recorded no event trace (streaming runs keep none)", key)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, strings.ReplaceAll(key, "/", "_")+".jsonl"))
	if err != nil {
		return err
	}
	if err := log.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
