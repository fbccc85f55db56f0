package hetis_test

import (
	"fmt"
	"log"

	"hetis"
)

// Example is the package doc-comment quickstart, kept compiling and
// producing the documented output: plan a Hetis deployment for a trace on
// the paper cluster and serve it.
func Example() {
	cluster := hetis.PaperCluster()
	cfg := hetis.DefaultEngineConfig(hetis.Llama13B, cluster)
	reqs := hetis.PoissonTrace(hetis.ShareGPT, 5, 60, 1)
	plan, err := hetis.PlanDeployment(cfg, reqs)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := hetis.NewHetisEngine(cfg, plan)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(reqs, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d/%d requests, p95 TTFT %.2fs\n",
		res.Completed, len(reqs), res.Recorder.Snapshot().TTFT.P95)
	// Output:
	// completed 301/301 requests, p95 TTFT 0.53s
}

// ExampleRunGrid sweeps engines × rates concurrently on the worker pool;
// the table is ordered by grid key, independent of completion order.
func ExampleRunGrid() {
	tab, err := hetis.RunGrid(hetis.GridSpec{
		Engines:  []string{"hetis", "splitwise"},
		Datasets: []string{"HE"},
		Rates:    []float64{2, 8},
		Duration: 5,
	}, hetis.SweepOptions{Jobs: 4})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range tab.Rows {
		fmt.Println(row[2], row[3], row[4], "->", row[6], "completed")
	}
	// Output:
	// HE 2 hetis -> 14 completed
	// HE 2 splitwise -> 14 completed
	// HE 8 hetis -> 36 completed
	// HE 8 splitwise -> 36 completed
}

// ExampleRunScenarios pools the scenario catalog over workers; rows follow
// catalog order (scenarios as named, engines in spec order) for any job
// count.
func ExampleRunScenarios() {
	tab, err := hetis.RunScenarios([]string{"bursty", "steady"}, true, 0, hetis.SweepOptions{Jobs: 4})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range tab.Rows {
		fmt.Println(row[0], row[1], "tenant", row[2])
	}
	// Output:
	// bursty hetis tenant all
	// bursty hexgen tenant all
	// bursty splitwise tenant all
	// steady hetis tenant all
	// steady hexgen tenant all
	// steady splitwise tenant all
}
