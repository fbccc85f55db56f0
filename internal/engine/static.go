package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"hetis/internal/hardware"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/sim"
)

// stagePipeline is a fixed sequence of pipeline stages, priced through
// their compiled cost records. The baselines serve on one built by
// buildStaticPipeline: per-type stages with static layer assignment and
// stage-local KV cache, whose capacity is limited by the most constrained
// stage — precisely the imbalance Fig. 1(b) illustrates. Each Hetis
// instance prices its stages through one too, leaving tokenCap unused.
type stagePipeline struct {
	stages []parallelizer.Stage
	// costs holds each stage's cost record, compiled at build, so pricing
	// an iteration reads fields instead of re-deriving the model and
	// device constants per request.
	costs []parallelizer.StageCost
	// tokenCap is the number of cacheable tokens, bounded by the tightest
	// stage: min_s floor(free_s / (kvPerTokenLayer · layers_s)).
	// Occupancy lives on the runtime replica (tokenPool.used), not
	// here: the pipeline is a pure shared shape that chaos-mode fleets
	// replicate without copying.
	tokenCap int64
	// kvTokenLayer and kvToken are the model's KV bytes per token in one
	// layer and across all layers, taken once at build so the decode loop
	// does not copy the model config to ask.
	kvTokenLayer, kvToken int64

	// denseMemo caches the batch-dependent side of decodeTime, indexed by
	// batch size (nil until that size first decodes), and attnScratch is
	// the per-iteration attention buffer; both are reused across decode
	// steps.
	denseMemo   []*denseCost
	attnScratch []float64
	// soloMemo caches prefillTime of a one-prompt batch, indexed by the
	// prompt length (0 until that length first prefills; a prefill always
	// costs more). Most prefill batches hold one prompt, and its cost is a
	// pure function of the length, so the memo never invalidates.
	soloMemo []float64
}

// soloMemoMax bounds the prompt lengths soloMemo holds; longer prompts
// are priced on every call.
const soloMemoMax = 1 << 14

// denseCost memoizes the batch-dependent terms of decodeTime: the
// dense stage times and their module latency, the inter-stage activation
// transfers and the LM head.
type denseCost struct {
	perStage []float64
	module   float64 // moduleLatency(perStage)
	p2p      float64 // (stages-1) activation hops; 0 for one stage
	lmHead   float64
	dense    float64 // Σ perStage (stage order) + p2p + lmHead: a Hetis step's dense cost
}

// buildStaticPipeline assigns layers to the given per-type device groups
// (ordered high→low tier) proportionally to their dense throughput, then
// computes the cache capacity. groups must be non-empty.
func buildStaticPipeline(cfg Config, est *perf.Estimator, cluster *hardware.Cluster, groups []hardware.TypeGroup, decodeBatch int) (*stagePipeline, error) {
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
		d := est.Compile(p.spec, 1)
		weights[i] = float64(len(p.ids)) / d.DenseLayerTime(decodeBatch)
		wsum += weights[i]
	}
	layers := apportionLayers(m.Layers, weights)

	// Enforce per-stage weight fit by shifting layers to stages with room.
	budget := func(p protoStage) float64 {
		return float64(len(p.ids)) * float64(p.spec.MemBytes) * (1 - parallelizer.MemHeadroom)
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

	p := &stagePipeline{kvTokenLayer: m.KVBytesPerTokenLayer(), kvToken: m.KVBytesPerToken()}
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
		p.costs = append(p.costs, parallelizer.CompileStage(est, st, parallelizer.StageLink(cluster, st)))
		free := budget(pr) - float64(layers[i])*float64(m.LayerWeightBytes())
		if free < 0 {
			free = 0
		}
		capTokens := int64(free / (float64(p.kvTokenLayer) * float64(layers[i])))
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
func (p *stagePipeline) cacheCapacityBytes() int64 { return p.tokenCap * p.kvToken }

// denseCostFor memoizes the batch-dependent terms of decodeTime; they
// are a pure function of (stage layout, batch), so the memo never
// invalidates.
func (p *stagePipeline) denseCostFor(cfg *Config, batch int) *denseCost {
	if batch < len(p.denseMemo) && p.denseMemo[batch] != nil {
		return p.denseMemo[batch]
	}
	c := &denseCost{perStage: make([]float64, len(p.costs))}
	for k := range p.costs {
		c.perStage[k] = p.costs[k].DecodeTime(batch)
		c.dense += c.perStage[k]
	}
	c.module = moduleLatency(c.perStage)
	last := &p.costs[len(p.costs)-1]
	if len(p.costs) > 1 {
		c.p2p = float64(len(p.costs)-1) * perf.P2PTime(cfg.Cluster.InterLink, last.HiddenStateBytes(batch))
	}
	c.lmHead = last.LMHeadTime(batch)
	c.dense = c.dense + c.p2p + c.lmHead
	if batch >= len(p.denseMemo) {
		p.denseMemo = append(p.denseMemo, make([]*denseCost, batch+1-len(p.denseMemo))...)
	}
	p.denseMemo[batch] = c
	return c
}

// decodeTime is one decode iteration for `batch` sequences whose total
// cached context is ctxTokens; it returns the iteration time plus the
// §7.3 dense/attention module latencies. The batch-dependent terms come
// from the per-batch memo; attention depends on the live cached context
// and is recomputed each call into a reused buffer. dt adds the stages'
// dense and attention times in stage order, then the activation hops,
// then the LM head — the order the unmemoized cost used — so the
// floating-point result is bit-identical to it.
func (p *stagePipeline) decodeTime(cfg *Config, batch int, ctxTokens int64) (dt, denseModule, attnModule float64) {
	dense := p.denseCostFor(cfg, batch)
	if cap(p.attnScratch) < len(p.stages) {
		p.attnScratch = make([]float64, len(p.stages))
	}
	attnPerStage := p.attnScratch[:len(p.stages)]
	heads := batch * cfg.Model.Heads
	cacheTokenLayer := ctxTokens * p.kvTokenLayer
	for k := range p.stages {
		st := &p.stages[k]
		attnPerStage[k] = float64(st.Layers) * p.costs[k].AttnDecodeTime(heads/st.TP, cacheTokenLayer/int64(st.TP))
		dt += dense.perStage[k] + attnPerStage[k]
	}
	dt += dense.p2p
	dt += dense.lmHead
	return dt, dense.module, moduleLatency(attnPerStage)
}

// prefillTime is the iteration cost of prefilling the given prompts
// (stagesPrefillTime); a one-prompt batch is priced once per length.
func (p *stagePipeline) prefillTime(cfg *Config, prompts []int) float64 {
	if len(prompts) != 1 || uint(prompts[0]) >= soloMemoMax {
		return stagesPrefillTime(p.costs, cfg.Cluster.InterLink, prompts)
	}
	l := prompts[0]
	if l < len(p.soloMemo) && p.soloMemo[l] != 0 {
		return p.soloMemo[l]
	}
	if l >= len(p.soloMemo) {
		p.soloMemo = append(p.soloMemo, make([]float64, l+1-len(p.soloMemo))...)
	}
	p.soloMemo[l] = stagesPrefillTime(p.costs, cfg.Cluster.InterLink, prompts)
	return p.soloMemo[l]
}

// stagesPrefillTime prices prefilling prompts through a pipeline's stage
// cost records: each stage's prefill, the activation hops between stages
// over interLink, then the LM head on the last stage.
func stagesPrefillTime(costs []parallelizer.StageCost, interLink hardware.LinkSpec, prompts []int) float64 {
	var dt float64
	for k := range costs {
		dt += costs[k].PrefillTime(prompts)
	}
	last := &costs[len(costs)-1]
	if len(costs) > 1 {
		total := 0
		for _, l := range prompts {
			total += l
		}
		dt += float64(len(costs)-1) * perf.P2PTime(interLink, last.HiddenStateBytes(total))
	}
	return dt + last.LMHeadTime(len(prompts))
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
//
// A decode step costs O(1 + finishers), not O(batch). The pool keeps a
// step clock, and a request in the batch holds its generated count
// relative to it (generated − clock), so one clock tick advances the whole
// batch; the count is made absolute again whenever the request leaves the
// batch (finish, eviction, preemption, evacuate), the only times anything
// reads it. ctxSum tracks the batch's total context, and finishAt files
// each request under the step it will finish on, so a step visits only
// its finishers.
type tokenPool struct {
	cfg   Config
	pipe  *stagePipeline
	res   *Result
	fleet *fleetCore

	// running is the decode batch in no particular order: a request
	// leaving swaps the last one into its slot (request.slot), which
	// pickVictim allows because its choice does not depend on order.
	running []*request
	// used is the replica's cache occupancy in tokens: the running batch,
	// plus whatever its runtime admitted ahead of decode (the colocated
	// runtime charges a prefill batch at admission).
	used int64
	// ctxSum is the running batch's total context length.
	ctxSum int64
	// clock counts the pool's decode steps.
	clock int
	// finishAt is a power-of-two ring of buckets: finishAt[t & (len-1)]
	// holds the running requests that finish on step t, in the order they
	// joined the batch. Join order is the order an ordered batch would
	// hold them in, so completions come out in that order without a sort.
	// A request's step is at most len steps ahead (join grows the ring).
	finishAt [][]*request

	// requeueQ is where a victim waits to re-prefill: at the head after an
	// overflow eviction, so it keeps its place in line, and in priority
	// order after a preemption. requeued then runs the runtime's own
	// requeue bookkeeping, and finished takes over a completed request
	// once the pool has released its cache.
	requeueQ *waitQueue
	requeued func(*sim.Simulator, *request)
	finished func(*sim.Simulator, *request)
}

// join adds a request that still has tokens to generate to the running
// batch. The caller has charged its cache to used.
func (p *tokenPool) join(r *request) {
	r.slot = int32(len(p.running))
	p.running = append(p.running, r)
	p.ctxSum += int64(r.contextLen())
	ahead := r.wl.OutputLen - r.generated
	if ahead > len(p.finishAt) {
		p.growRing(ahead)
	}
	r.generated -= p.clock
	i := p.finishStep(r) & (len(p.finishAt) - 1)
	p.finishAt[i] = append(p.finishAt[i], r)
}

// finishStep is the step on which a request in the batch finishes.
func (p *tokenPool) finishStep(r *request) int { return r.wl.OutputLen - r.generated }

// growRing widens finishAt to hold a finish step ahead steps away, moving
// each pending bucket whole so its join order survives.
func (p *tokenPool) growRing(ahead int) {
	n := max(64, len(p.finishAt))
	for n < ahead {
		n *= 2
	}
	ring := make([][]*request, n)
	for t := p.clock + 1; t <= p.clock+len(p.finishAt); t++ {
		ring[t&(n-1)] = p.finishAt[t&(len(p.finishAt)-1)]
	}
	p.finishAt = ring
}

// leave takes r out of the batch and makes its generated count absolute.
func (p *tokenPool) leave(r *request) {
	last := len(p.running) - 1
	moved := p.running[last]
	p.running[r.slot] = moved
	moved.slot = r.slot
	p.running[last] = nil
	p.running = p.running[:last]
	r.generated += p.clock
	p.ctxSum -= int64(r.contextLen())
}

// launchDecode prices one decode iteration of the running batch, records
// its §7.3 module latencies unless the run is untraced, and schedules done
// at its end.
func (p *tokenPool) launchDecode(s *sim.Simulator, name string, done func(*sim.Simulator)) sim.Handle {
	dt, dense, attn := p.pipe.decodeTime(&p.cfg, len(p.running), p.ctxSum)
	if !p.cfg.NoTrace {
		p.res.DenseTimes.Append(dense)
		p.res.AttnTimes.Append(attn)
	}
	return s.After(dt, name, done)
}

// afterDecode advances every running request by one token (a clock tick)
// and finishes the step's completions in join order. While the cache then
// overflows, it evicts victims for recomputation: LIFO preemption, as
// vLLM does.
func (p *tokenPool) afterDecode(s *sim.Simulator) {
	p.clock++
	n := int64(len(p.running))
	p.used += n
	p.ctxSum += n
	i := p.clock & (len(p.finishAt) - 1)
	done := p.finishAt[i]
	for _, r := range done {
		p.leave(r)
		p.release(r)
		p.finished(s, r)
	}
	clear(done)
	p.finishAt[i] = done[:0]
	p.fleet.flushFinishes()
	for p.used > p.pipe.tokenCap && len(p.running) > 0 {
		v := p.remove(pickVictim(p.running, p.fleet.ctl.tiered(), anyPrio))
		p.fleet.evictForRecompute(s, v, true)
		p.requeueQ.pushFront(v)
		p.requeued(s, v)
	}
	if used := p.used * p.pipe.kvToken; used > p.res.PeakCacheUsed {
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

// remove takes running[i] out of the batch ahead of its finish step and
// releases its cache.
func (p *tokenPool) remove(i int) *request {
	v := p.running[i]
	b := p.finishStep(v) & (len(p.finishAt) - 1)
	k := slices.Index(p.finishAt[b], v)
	p.finishAt[b] = slices.Delete(p.finishAt[b], k, k+1)
	p.leave(v)
	p.release(v)
	return v
}

// release returns a request's cache to the pool.
func (p *tokenPool) release(r *request) { p.used -= int64(r.contextLen()) }

// evacuate empties the pool for a replica teardown and returns the batch
// that was running, every generated count absolute again. The slice is
// the pool's own and is valid only until the next join.
func (p *tokenPool) evacuate() []*request {
	batch := p.running
	for _, r := range batch {
		r.generated += p.clock
	}
	for i := range p.finishAt {
		clear(p.finishAt[i])
		p.finishAt[i] = p.finishAt[i][:0]
	}
	p.running = batch[:0]
	p.used = 0
	p.ctxSum = 0
	return batch
}

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
	slices.SortFunc(rems, func(a, b rem) int {
		if c := cmp.Compare(b.frac, a.frac); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
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
