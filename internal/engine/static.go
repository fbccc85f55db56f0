package engine

import (
	"fmt"
	"sort"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/sim"
)

// staticPipeline is the shared substrate of the two baselines: a fixed
// sequence of per-type pipeline stages with static layer assignment and
// stage-local KV cache. Its capacity is limited by the most constrained
// stage — precisely the imbalance Fig. 1(b) illustrates.
type staticPipeline struct {
	stages []parallelizer.Stage
	links  []hardware.LinkSpec
	// tokenCap is the number of cacheable tokens, bounded by the tightest
	// stage: min_s floor(free_s / (kvPerTokenLayer · layers_s)).
	// Occupancy lives on the runtime replica (tokenPool.used), not
	// here: the pipeline is a pure shared shape that chaos-mode fleets
	// replicate without copying.
	tokenCap int64

	// denseMemo caches per-batch dense stage times (pure in batch size;
	// see decodeTime), and attnScratch is the per-iteration attention
	// buffer both reused across decode steps.
	denseMemo   map[int]*staticDenseCost
	attnScratch []float64
}

// staticDenseCost memoizes the batch-dependent dense side of decodeTime.
type staticDenseCost struct {
	perStage []float64
	module   float64 // moduleLatency(perStage)
}

// buildStaticPipeline assigns layers to the given per-type device groups
// (ordered high→low tier) proportionally to their dense throughput, then
// computes the cache capacity. groups must be non-empty.
func buildStaticPipeline(cfg Config, est *perf.Estimator, cluster *hardware.Cluster, groups []hardware.TypeGroup, decodeBatch int) (*staticPipeline, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("engine: static pipeline needs devices")
	}
	m := cfg.Model

	// One stage per (type, host) so TP stays within a host, like §7.2's
	// HexGen setup (3090s form two 2-way TP stages, one per host).
	type protoStage struct {
		spec hardware.GPUSpec
		ids  []hardware.DeviceID
	}
	var protos []protoStage
	for _, g := range groups {
		byHost := map[int][]hardware.DeviceID{}
		var hosts []int
		for _, id := range g.IDs {
			h := cluster.Device(id).Host
			if _, ok := byHost[h]; !ok {
				hosts = append(hosts, h)
			}
			byHost[h] = append(byHost[h], id)
		}
		sort.Ints(hosts)
		for _, h := range hosts {
			protos = append(protos, protoStage{spec: g.Spec, ids: byHost[h]})
		}
	}

	// Apportion layers ∝ devices/denseLayerTime.
	weights := make([]float64, len(protos))
	var wsum float64
	for i, p := range protos {
		weights[i] = float64(len(p.ids)) / est.DenseLayerTime(p.spec, decodeBatch, 1)
		wsum += weights[i]
	}
	layers := apportionLayers(m.Layers, weights)

	// Enforce per-stage weight fit by shifting layers to stages with room.
	budget := func(p protoStage) float64 {
		return float64(len(p.ids)) * float64(p.spec.MemBytes) * (1 - cfg.MemHeadroom)
	}
	fits := func(i int) bool {
		return float64(layers[i])*float64(m.LayerWeightBytes()) <= budget(protos[i])
	}
	for pass := 0; pass < m.Layers; pass++ {
		moved := false
		for i := range protos {
			for !fits(i) && layers[i] > 0 {
				// Move one layer to the stage with the most spare weight
				// budget.
				best, bestSpare := -1, 0.0
				for j := range protos {
					if j == i {
						continue
					}
					spare := budget(protos[j]) - float64(layers[j]+1)*float64(m.LayerWeightBytes())
					if spare > bestSpare {
						bestSpare = spare
						best = j
					}
				}
				if best < 0 {
					return nil, fmt.Errorf("engine: %s does not fit on the static pipeline", m.Name)
				}
				layers[i]--
				layers[best]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	p := &staticPipeline{}
	p.tokenCap = int64(^uint64(0) >> 1)
	for i, pr := range protos {
		if layers[i] == 0 {
			continue
		}
		st := parallelizer.Stage{
			Spec:    pr.spec,
			Devices: pr.ids,
			TP:      len(pr.ids),
			PP:      1,
			Layers:  layers[i],
		}
		p.stages = append(p.stages, st)
		p.links = append(p.links, parallelizer.StageLink(cluster, st))
		free := budget(pr) - float64(layers[i])*float64(m.LayerWeightBytes())
		if free < 0 {
			free = 0
		}
		capTokens := int64(free / (float64(m.KVBytesPerTokenLayer()) * float64(layers[i])))
		if capTokens < p.tokenCap {
			p.tokenCap = capTokens
		}
	}
	if len(p.stages) == 0 {
		return nil, fmt.Errorf("engine: static pipeline has no layers")
	}
	return p, nil
}

// cacheCapacityBytes converts the token capacity to bytes.
func (p *staticPipeline) cacheCapacityBytes(m model.Config) int64 {
	return p.tokenCap * m.KVBytesPerToken()
}

// denseCostFor memoizes the batch-dependent dense stage times; dense
// module cost is a pure function of (stage layout, batch), so the memo
// never invalidates.
func (p *staticPipeline) denseCostFor(est *perf.Estimator, batch int) *staticDenseCost {
	if c, ok := p.denseMemo[batch]; ok {
		return c
	}
	c := &staticDenseCost{perStage: make([]float64, len(p.stages))}
	for k, st := range p.stages {
		c.perStage[k] = parallelizer.StageDecodeTime(est, st, batch, p.links[k])
	}
	c.module = moduleLatency(c.perStage)
	if p.denseMemo == nil {
		p.denseMemo = make(map[int]*staticDenseCost)
	}
	p.denseMemo[batch] = c
	return c
}

// decodeTime is one decode iteration for `batch` sequences whose total
// cached context is ctxTokens; it returns the iteration time plus the
// §7.3 dense/attention module latencies. Dense stage times come from the
// per-batch memo; attention depends on the live cached context and is
// recomputed each call into a reused buffer. The dt accumulation walks
// stages interleaving dense and attention exactly like the pre-memo code,
// so the floating-point result is bit-identical.
func (p *staticPipeline) decodeTime(est *perf.Estimator, cfg Config, batch int, ctxTokens int64) (dt, denseModule, attnModule float64) {
	m := cfg.Model
	dense := p.denseCostFor(est, batch)
	if cap(p.attnScratch) < len(p.stages) {
		p.attnScratch = make([]float64, len(p.stages))
	}
	attnPerStage := p.attnScratch[:len(p.stages)]
	for k, st := range p.stages {
		heads := batch * m.Heads / st.TP
		cacheLayer := ctxTokens * m.KVBytesPerTokenLayer() / int64(st.TP)
		attnPerStage[k] = float64(st.Layers) * est.AttnDecodeTime(st.Spec, heads, cacheLayer)
		dt += dense.perStage[k] + attnPerStage[k]
	}
	if len(p.stages) > 1 {
		dt += float64(len(p.stages)-1) * perf.P2PTime(cfg.Cluster.InterLink, m.HiddenStateBytes(batch))
	}
	last := p.stages[len(p.stages)-1]
	dt += est.LMHeadTime(last.Spec, batch, last.TP)
	return dt, dense.module, moduleLatency(attnPerStage)
}

// prefillTime is the iteration cost of prefilling the given prompts.
func (p *staticPipeline) prefillTime(est *perf.Estimator, cfg Config, prompts []int) float64 {
	m := cfg.Model
	total := 0
	for _, l := range prompts {
		total += l
	}
	var dt float64
	for k, st := range p.stages {
		dt += parallelizer.StagePrefillTime(est, st, prompts, p.links[k])
	}
	if len(p.stages) > 1 {
		dt += float64(len(p.stages)-1) * perf.P2PTime(cfg.Cluster.InterLink, m.HiddenStateBytes(total))
	}
	last := p.stages[len(p.stages)-1]
	dt += est.LMHeadTime(last.Spec, len(prompts), last.TP)
	return dt
}

// tokenPool is the decode side of one static-pipeline replica: the
// running batch and the replica's KV occupancy, counted in tokens against
// the pipeline's tokenCap. It prices and advances decode iterations, and
// keeps occupancy under the cap by evicting for recomputation on overflow
// and by preempting lower tiers for an admission, both through pickVictim.
// The colocated staticRuntime and Splitwise's decode side each embed one.
// What differs between them is where a victim requeues and what a request
// leaving the pool releases; those are fields bound once at construction,
// so the decode loop allocates nothing.
type tokenPool struct {
	cfg   Config
	est   *perf.Estimator
	pipe  *staticPipeline
	res   *Result
	fleet *fleetCore

	running []*request
	// used is the replica's cache occupancy in tokens: the running batch,
	// plus whatever its runtime admitted ahead of decode (the colocated
	// runtime charges a prefill batch at admission).
	used int64

	// requeueQ is where a victim waits to re-prefill: at the head after an
	// overflow eviction, so it keeps its place in line, and in priority
	// order after a preemption. requeued then runs the runtime's own
	// requeue bookkeeping, and finished takes over a completed request
	// once the pool has released its cache.
	requeueQ *waitQueue
	requeued func(*sim.Simulator, *request)
	finished func(*sim.Simulator, *request)
}

// launchDecode prices one decode iteration of the running batch, records
// its §7.3 module latencies, and schedules done at its end.
func (p *tokenPool) launchDecode(s *sim.Simulator, name string, done func(*sim.Simulator)) sim.Handle {
	var ctxTokens int64
	for _, r := range p.running {
		ctxTokens += int64(r.contextLen())
	}
	dt, dense, attn := p.pipe.decodeTime(p.est, p.cfg, len(p.running), ctxTokens)
	p.res.DenseTimes.Append(dense)
	p.res.AttnTimes.Append(attn)
	return s.After(dt, name, done)
}

// afterDecode advances every running request by one token and finishes
// the completed ones. While the cache then overflows, it evicts victims
// for recomputation: LIFO preemption, as vLLM does.
func (p *tokenPool) afterDecode(s *sim.Simulator) {
	still := p.running[:0]
	for _, r := range p.running {
		r.generated++
		p.used++
		if r.done() {
			p.release(r)
			p.finished(s, r)
			continue
		}
		still = append(still, r)
	}
	p.running = still
	p.fleet.flushFinishes()
	for p.used > p.pipe.tokenCap && len(p.running) > 0 {
		v := p.remove(pickVictim(p.running, p.fleet.ctl.tiered(), anyPrio))
		p.fleet.evictForRecompute(s, v, true)
		p.requeueQ.pushFront(v)
		p.requeued(s, v)
	}
	if used := p.used * p.cfg.Model.KVBytesPerToken(); used > p.res.PeakCacheUsed {
		p.res.PeakCacheUsed = used
	}
}

// preemptFor evicts running work of priority below prio until ctx more
// tokens fit (multi-tier chaos only). The victims requeue: preemption
// costs latency, not a completion.
func (p *tokenPool) preemptFor(s *sim.Simulator, prio int, ctx int64) {
	for p.used+ctx > p.pipe.tokenCap {
		i := pickVictim(p.running, p.fleet.ctl.tiered(), prio)
		if i < 0 {
			return
		}
		v := p.remove(i)
		p.fleet.evictForRecompute(s, v, false)
		p.fleet.ctl.notePreempt(s, v)
		p.requeueQ.push(v)
		p.requeued(s, v)
	}
}

// remove takes running[i] out of the batch and releases its cache.
func (p *tokenPool) remove(i int) *request {
	v := p.running[i]
	p.running = append(p.running[:i], p.running[i+1:]...)
	p.release(v)
	return v
}

// release returns a request's cache to the pool.
func (p *tokenPool) release(r *request) { p.used -= int64(r.contextLen()) }

// apportionLayers is the largest-remainder apportionment used by the
// baselines (their stages always keep at least one layer when weighted).
func apportionLayers(total int, weights []float64) []int {
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	n := len(weights)
	out := make([]int, n)
	if n == 0 || wsum <= 0 {
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	assigned := 0
	rems := make([]rem, 0, n)
	for i, w := range weights {
		exact := float64(total) * w / wsum
		out[i] = int(exact)
		assigned += out[i]
		rems = append(rems, rem{i, exact - float64(out[i])})
	}
	sort.Slice(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; assigned < total; k++ {
		out[rems[k%n].idx]++
		assigned++
	}
	for i := range out {
		if weights[i] > 0 && out[i] == 0 {
			maxIdx := 0
			for j := range out {
				if out[j] > out[maxIdx] {
					maxIdx = j
				}
			}
			if out[maxIdx] > 1 {
				out[maxIdx]--
				out[i]++
			}
		}
	}
	return out
}
