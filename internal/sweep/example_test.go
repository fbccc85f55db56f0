package sweep_test

import (
	"fmt"

	"hetis/internal/metrics"
	"hetis/internal/sweep"
)

// ExampleRunMany sweeps a 3-point grid — the Hetis engine over the three
// paper datasets — on a 3-worker pool. Results come back in job order no
// matter which worker finished first, so the output is stable.
func ExampleRunMany() {
	spec := sweep.GridSpec{
		Engines:  []string{"hetis"},
		Datasets: []string{"SG", "HE", "LB"},
		Rates:    []float64{2},
		Duration: 5,
	}
	var jobs []sweep.Job
	for _, p := range spec.Points() {
		jobs = append(jobs, sweep.Job{Key: p.Key(), Run: func() (*metrics.Table, error) {
			return sweep.RunPoint(spec, p, "")
		}})
	}
	results, err := sweep.RunMany(jobs, sweep.Options{Jobs: 3})
	if err != nil {
		fmt.Println("sweep failed:", err)
		return
	}
	for _, r := range results {
		// Columns: ..., Requests, Completed, ...
		fmt.Printf("%s completed %s/%s\n", r.Key, r.Table.Rows[0][6], r.Table.Rows[0][5])
	}
	// Output:
	// Llama-13B/SG/2/hetis completed 14/14
	// Llama-13B/HE/2/hetis completed 14/14
	// Llama-13B/LB/2/hetis completed 14/14
}
