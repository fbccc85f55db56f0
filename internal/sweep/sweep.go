// Package sweep fans independent simulation runs out over a bounded worker
// pool and collects their tables deterministically.
//
// The unit of work is a [Job]: a key plus a function producing a
// [metrics.Table]. [RunMany] executes a batch of jobs on up to Jobs worker
// goroutines (0 = one per CPU) and returns the results ordered by key,
// independent of completion order, so a sweep's output is byte-identical
// whether it ran on one worker or eight.
//
// Jobs share a [Cache] that memoizes the expensive work many runs have in
// common — trace generation, parallelizer planning, and profile fitting —
// behind a sync.RWMutex, keyed by (model, cluster, dataset, seed). A grid
// sweep over {engine × dataset × rate × model} points ([GridSpec],
// [RunGrid]) generates each trace once and fits each model/cluster profile
// once, no matter how many engines replay them.
//
// Everything a job touches must be pool-safe: the experiment runners are
// pure functions of their options, the engines treat traces, plans and
// profiles as read-only, and all randomness is seeded explicitly.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	"hetis/internal/metrics"
	"hetis/internal/sweep/pool"
)

// Options tunes a pool run.
type Options struct {
	// Jobs bounds the number of concurrently executing jobs; 0 (or
	// negative) means one worker per CPU.
	Jobs int
	// Cache is the shared memo for traces, plans and profiles. Nil gives
	// the run a private cache.
	Cache *Cache
	// ShardWorkers bounds the intra-run shard concurrency of sharded
	// (fleet) scenarios in the batch; 0 means one worker per CPU. Output
	// is byte-identical at every value — this knob trades wall-clock only.
	// Unsharded runs ignore it.
	ShardWorkers int
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.NumCPU()
}

// Job is one unit of pool work.
type Job struct {
	// Key identifies the job and orders its result among the others.
	Key string
	// Run produces the job's table. It may use the cache for shared work
	// and must be safe to call concurrently with other jobs.
	Run func(c *Cache) (*metrics.Table, error)
}

// Result pairs a job key with its outcome.
type Result struct {
	Key   string
	Table *metrics.Table
	Err   error
}

// RunMany executes the jobs on a bounded worker pool and returns one result
// per job, sorted by key (ties keep submission order). The slice always has
// len(jobs) entries; a failed job carries its error in Result.Err. The
// returned error joins all job errors in the same deterministic order, so
// callers that only care about overall success can check it alone. Every
// job runs to completion — a failure does not cancel its siblings, which
// keeps the set of executed work (and therefore the cache contents)
// independent of scheduling.
func RunMany(jobs []Job, opts Options) ([]Result, error) {
	cache := opts.Cache
	if cache == nil {
		cache = NewCache()
	}
	results := make([]Result, len(jobs))
	pool.Each(len(jobs), opts.workers(), func(i int) {
		tab, err := jobs[i].Run(cache)
		if err != nil {
			err = fmt.Errorf("sweep: job %s: %w", jobs[i].Key, err)
		}
		results[i] = Result{Key: jobs[i].Key, Table: tab, Err: err}
	})

	sort.SliceStable(results, func(i, j int) bool { return results[i].Key < results[j].Key })
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return results, errors.Join(errs...)
}
