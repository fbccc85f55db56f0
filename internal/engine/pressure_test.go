package engine_test

import (
	"testing"

	"hetis/internal/scenario"
)

// TestHetisProgressUnderKVPressure drives the Hetis engine into sustained
// KV pressure: multitenant at 6 req/s for 1000 s fills one worker while
// aggregate use stays under the admission watermark. A request whose
// first token overflows that worker is evicted right after its prefill;
// re-admitting it before any decode step would prefill it into the same
// shortage forever, and no request would finish again.
//
// The bound is on events per offered request, not wall time: a healthy
// run costs a few events per request, while the livelock spins through
// prefill/evict pairs until the horizon (about 155 per request).
func TestHetisProgressUnderKVPressure(t *testing.T) {
	spec, err := scenario.ByName("multitenant")
	if err != nil {
		t.Fatal(err)
	}
	spec.Traffic.Rate = 6
	spec.Duration = 1000
	spec.Seed = 1
	reqs, err := scenario.Prepare(spec, false).Trace()
	if err != nil {
		t.Fatal(err)
	}
	offered := len(reqs)
	f, err := scenario.PrepareFleet(spec, "hetis", scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("completed %d of %d, %d evictions, %.2f events per request",
		res.Completed, offered, res.Evictions, float64(res.Events)/float64(offered))
	if res.Completed != offered {
		t.Errorf("completed %d of %d offered requests (%d evictions)", res.Completed, offered, res.Evictions)
	}
	if per := float64(res.Events) / float64(offered); per > 4 {
		t.Errorf("%.2f events per offered request, want <= 4 (%d evictions)", per, res.Evictions)
	}
}
