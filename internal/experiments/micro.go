package experiments

import (
	"hetis/internal/hardware"
	"hetis/internal/kvcache"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/profile"
)

// Table1 reproduces Table 1: memory capacity and full-model iteration time
// per GPU for OPT-2.7B (3 prefill requests, 25 decode requests).
func Table1(Options) (*metrics.Table, error) {
	est, err := perf.New(model.OPT27B)
	if err != nil {
		return nil, err
	}
	cfg := model.OPT27B
	const (
		promptLen = 512
		decodeCtx = 200
		prefills  = 3
		decodes   = 25
	)
	prompts := make([]int, prefills)
	for i := range prompts {
		prompts[i] = promptLen
	}
	tab := &metrics.Table{Header: []string{"Device", "Memory(GB)", "Time(Prefill,s)", "Time(Decode,s)"}}
	for _, spec := range []hardware.GPUSpec{hardware.A100, hardware.RTX3090, hardware.P100} {
		d := est.Compile(spec, 1)
		dense := float64(cfg.Layers) * d.DenseLayerTime(prefills*promptLen)
		attn := float64(cfg.Layers) * d.AttnPrefillLayerTime(prompts)
		prefill := dense + attn + d.LMHeadTime(prefills)
		decode := float64(cfg.Layers)*d.DenseLayerTime(decodes) + d.LMHeadTime(decodes)
		heads := decodes * cfg.Heads
		cache := est.CacheBytesPerLayer(cfg.Heads, decodeCtx) * decodes
		decode += float64(cfg.Layers) * d.AttnDecodeTime(heads, cache)
		tab.AddRow(spec.Name, float64(spec.MemBytes)/1e9, prefill, decode)
	}
	return tab, nil
}

// Fig2 reproduces Fig. 2: per-layer decode MLP and Attention time across
// GPUs for Llama-70B with 1000-token contexts, normalized to the A100.
func Fig2(Options) (*metrics.Table, error) {
	est, err := perf.New(model.Llama70B)
	if err != nil {
		return nil, err
	}
	cfg := model.Llama70B
	const seqLen = 1000
	tab := &metrics.Table{Header: []string{"Requests", "Module", "P100", "3090", "A100(norm=1)"}}
	for _, n := range []int{20, 100, 200, 300, 400} {
		mlp := func(spec hardware.GPUSpec) float64 {
			// MLP share of the dense layer (module-level, no projections).
			d := est.Compile(spec, 1)
			frac := cfg.MLPFlopsPerToken() / cfg.DenseFlopsPerToken()
			return d.DenseLayerTime(n) * frac
		}
		attn := func(spec hardware.GPUSpec) float64 {
			heads := n * cfg.Heads
			cache := est.CacheBytesPerLayer(cfg.Heads, seqLen) * int64(n)
			d := est.Compile(spec, 1)
			return d.AttnDecodeTime(heads, cache)
		}
		baseM, baseA := mlp(hardware.A100), attn(hardware.A100)
		tab.AddRow(n, "MLP", mlp(hardware.P100)/baseM, mlp(hardware.RTX3090)/baseM, 1.0)
		tab.AddRow(n, "Attention", attn(hardware.P100)/baseA, attn(hardware.RTX3090)/baseA, 1.0)
	}
	return tab, nil
}

// Fig5 reproduces Fig. 5: communication overhead of head-wise vs
// sequence-wise attention splitting on Llama-70B over 100 Gbps.
// (a) one attention worker at varying offload ratios; (b) loads spread
// evenly over 1-4 workers.
func Fig5(Options) (*metrics.Table, error) {
	est, err := perf.New(model.Llama70B)
	if err != nil {
		return nil, err
	}
	cfg := model.Llama70B
	link := hardware.LAN100G
	const batch = 64 // decoding requests per iteration

	tab := &metrics.Table{Header: []string{"Part", "X", "HeadWise(ms)", "SeqWise(ms)", "Ratio"}}

	// (a) offload ratio sweep, one worker.
	for _, pct := range []int{20, 40, 60, 80} {
		heads := cfg.Heads * pct / 100
		hw := perf.P2PTime(link, int64(batch)*est.HeadScatterBytes(heads))
		// Sequence-wise must ship the full q vector and gather the full
		// partial result regardless of the cache fraction offloaded.
		sw := perf.P2PTime(link, int64(batch)*est.SeqScatterBytes())
		tab.AddRow("(a)", pct, hw*1e3, sw*1e3, sw/hw)
	}

	// (b) even split over w workers. All legs originate at the primary and
	// serialize on its NIC: head-wise total volume is constant in w (each
	// worker receives its own disjoint heads), while sequence-wise must
	// replicate the full q vector to every worker, so its volume grows
	// linearly with w — the contention the paper highlights.
	for _, w := range []int{1, 2, 3, 4} {
		headsPer := cfg.Heads / w
		hwBytes := int64(batch) * est.HeadScatterBytes(headsPer) * int64(w)
		hw := float64(w)*link.Alpha + float64(hwBytes)/link.Beta
		swBytes := int64(batch) * est.SeqScatterBytes() * int64(w)
		sw := float64(w)*link.Alpha + float64(swBytes)/link.Beta
		tab.AddRow("(b)", w, hw*1e3, sw*1e3, sw/hw)
	}
	return tab, nil
}

// Fig7 reproduces Fig. 7: the linear structure of decode-attention time on
// OPT-30B. (a) time vs request count at fixed totals; (b) vs average
// context length; (c) vs head count.
func Fig7(Options) (*metrics.Table, error) {
	est, err := perf.New(model.OPT30B)
	if err != nil {
		return nil, err
	}
	cfg := model.OPT30B
	a100 := est.Compile(hardware.A100, 1)
	tab := &metrics.Table{Header: []string{"Part", "X", "AttnTime(ms)"}}

	// (a) fixed totals (30k heads, fixed cache), varying request count.
	totalHeads := 30000
	for _, n := range []int{400, 500, 600, 700} {
		// The same total cache split over n requests.
		cache := est.CacheBytesPerLayer(cfg.Heads, 1000) * 550 // constant
		t := a100.AttnDecodeTime(totalHeads, cache)
		tab.AddRow("(a)", n, t*1e3)
	}

	// (b) growing context length, fixed 550 requests.
	for _, ctx := range []int{900, 1000, 1100, 1200} {
		heads := 550 * cfg.Heads
		cache := est.CacheBytesPerLayer(cfg.Heads, ctx) * 550
		t := a100.AttnDecodeTime(heads, cache)
		tab.AddRow("(b)", ctx, t*1e3)
	}

	// (c) growing head count, fixed cache.
	fixedCache := est.CacheBytesPerLayer(cfg.Heads, 1000) * 550
	for _, heads := range []int{15000, 30000, 45000} {
		t := a100.AttnDecodeTime(heads, fixedCache)
		tab.AddRow("(c)", heads, t*1e3)
	}
	return tab, nil
}

// Fig15b reproduces Fig. 15(b): head-wise vs token-wise cache-management
// overhead on the store and fetch paths.
func Fig15b(Options) (*metrics.Table, error) {
	const groups, blocks = 40, 64
	tab := &metrics.Table{Header: []string{"Path", "vLLM(norm)", "Hetis(norm)"}}
	tab.AddRow("Stor.", 1.0, kvcache.HeadWiseStore(groups)/kvcache.TokenWiseStore())
	tab.AddRow("Fetch.", 1.0, kvcache.HeadWiseFetch(groups, blocks)/kvcache.TokenWiseFetch(blocks))
	return tab, nil
}

// SearchOverhead reproduces the §7.4 searching-overhead measurement: how
// many configurations the Parallelizer costs on the paper cluster and on a
// large simulated cluster with five GPU types × 32 GPUs. The table holds
// only deterministic columns, so `-exp all` output is byte-stable; the
// search's wall-clock time is the root BenchmarkParallelizerSearch's to
// measure.
func SearchOverhead(Options) (*metrics.Table, error) {
	tab := &metrics.Table{Header: []string{"Cluster", "GPUs", "Configs"}}

	run := func(name string, cluster *hardware.Cluster, m model.Config, batch int) error {
		wl := parallelizer.DefaultWorkload()
		wl.DecodeBatch = batch
		est, err := perf.New(m)
		if err != nil {
			return err
		}
		plan, err := parallelizer.Search(cluster, est, wl, parallelizer.DefaultOptions())
		if err != nil {
			return err
		}
		tab.AddRow(name, cluster.NumDevices(), plan.Evaluated)
		return nil
	}
	if err := run("paper(4xA100+4x3090+4xP100)", hardware.PaperCluster(), model.Llama70B, 64); err != nil {
		return nil, err
	}
	big := hardware.NewBuilder(hardware.LAN100G)
	for _, s := range []hardware.GPUSpec{hardware.H100, hardware.A100, hardware.V100, hardware.RTX3090, hardware.P100} {
		for h := 0; h < 4; h++ {
			big.AddHost(s.Name, hardware.PCIe4x16, s, 8)
		}
	}
	if err := run("large(5 types x 32)", big.MustBuild(), model.Llama70B, 512); err != nil {
		return nil, err
	}
	return tab, nil
}

// ModelAccuracy reproduces the §7.4 profiling-accuracy measurement: the
// fitted Eq. 3 / Eq. 4 models against held-out ground truth per device.
func ModelAccuracy(Options) (*metrics.Table, error) {
	est, err := perf.New(model.OPT30B)
	if err != nil {
		return nil, err
	}
	cluster := hardware.PaperCluster()
	prof, err := profile.Run(est, cluster, 0)
	if err != nil {
		return nil, err
	}
	tab := &metrics.Table{Header: []string{"Device", "AttnAccuracy(%)", "NetAccuracy(%)"}}
	for _, dev := range cluster.Devices {
		tab.AddRow(dev.String(), prof.AttnAccuracy[dev.ID]*100, prof.NetAccuracy[dev.ID]*100)
	}
	return tab, nil
}
