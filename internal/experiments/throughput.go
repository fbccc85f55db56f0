package experiments

import (
	"fmt"

	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// sloNormLatency is the service objective used to define "sustained": mean
// normalized latency at or below this many seconds per token.
const sloNormLatency = 0.25

// maxSustainedRate ladders the request rate upward and returns the largest
// rate at which the named engine finishes ≥99% of the trace within the
// horizon while meeting the latency SLO, on a fresh paper cluster per probe.
func maxSustainedRate(m model.Config, name string, dist workload.LengthDist, rates []float64, dur float64, opts Options) (float64, error) {
	best := 0.0
	for _, rate := range rates {
		reqs := workload.Poisson(dist, rate, dur, opts.seed(3000+int64(rate*7)))
		if len(reqs) == 0 {
			continue
		}
		res, err := serve(m, hardware.PaperCluster(), reqs, dur*8, name)
		if err != nil {
			return 0, err
		}
		done := float64(res[0].Completed) / float64(len(reqs))
		lat := res[0].Recorder.Snapshot().NormLat.Mean
		if done >= 0.99 && lat <= sloNormLatency {
			best = rate
		}
	}
	return best, nil
}

// Throughput reproduces the abstract's headline claim: the maximum request
// rate each system sustains (≥99% completion within the horizon and mean
// normalized latency ≤ 0.25 s/token), per dataset, on Llama-13B over the
// paper cluster. The paper reports Hetis sustaining up to 2.25× Splitwise's
// rate and 1.33× HexGen's.
func Throughput(opts Options) (*metrics.Table, error) {
	m := model.Llama13B
	dur := opts.duration(40)
	ladders := map[string][]float64{
		"SG": {2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16},
		"HE": {10, 15, 20, 25, 30, 40, 50, 60, 70, 80},
		"LB": {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
	tab := &metrics.Table{Header: []string{
		"Dataset", "Splitwise(req/s)", "Hexgen(req/s)", "Hetis(req/s)",
		"Hetis/SW", "Hetis/HG",
	}}
	for _, ds := range []string{"SG", "HE", "LB"} {
		dist, err := workload.ByName(ds)
		if err != nil {
			return nil, err
		}
		var sustained [3]float64
		for i, name := range []string{"splitwise", "hexgen", "hetis"} {
			if sustained[i], err = maxSustainedRate(m, name, dist, ladders[ds], dur, opts); err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, ds, err)
			}
		}
		swRate, hgRate, htRate := sustained[0], sustained[1], sustained[2]

		ratio := func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
		tab.AddRow(ds, swRate, hgRate, htRate, ratio(htRate, swRate), ratio(htRate, hgRate))
	}
	return tab, nil
}
