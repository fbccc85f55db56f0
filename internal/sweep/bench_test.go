package sweep

import (
	"fmt"
	"testing"
	"time"

	"hetis/internal/metrics"
)

// benchSpec is the acceptance-sized sweep: 3 engines × 3 datasets × 3
// rates = 27 points.
func benchSpec() GridSpec {
	return GridSpec{
		Engines:  []string{"hetis", "splitwise", "vllm"},
		Datasets: []string{"SG", "HE", "LB"},
		Rates:    []float64{2, 5, 10},
		Duration: 10,
	}
}

// BenchmarkGrid runs the 27-point grid the way RunGrid does, on one
// worker, so its time is the sum of the points' own runs.
func BenchmarkGrid(b *testing.B) {
	spec := benchSpec()
	for i := 0; i < b.N; i++ {
		if _, err := RunGrid(spec, Options{Jobs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolOverlap measures the pool's ability to overlap jobs that
// wait rather than compute (16 × 5 ms sleeps). With Jobs=8 the batch
// finishes in ~2 sleep lengths even on one core; the Jobs=1 variant pays
// all 16 serially. CPU-bound simulation jobs instead scale with physical
// cores — see doc/PARALLELISM.md.
func BenchmarkPoolOverlap(b *testing.B) {
	mkJobs := func() []Job {
		jobs := make([]Job, 16)
		for i := range jobs {
			jobs[i] = Job{Key: fmt.Sprintf("j%02d", i), Run: func() (*metrics.Table, error) {
				time.Sleep(5 * time.Millisecond)
				return &metrics.Table{}, nil
			}}
		}
		return jobs
	}
	for _, jobs := range []int{1, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunMany(mkJobs(), Options{Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
