// Package parallelizer implements Hetis' primary-worker parallelism search
// (§4.1): the hierarchical exploration that decides which GPUs run the
// dense modules (primary workers), how the model is partitioned over them
// with data/pipeline/tensor parallelism, and which GPUs are demoted to the
// shared Attention-worker pool.
//
// The search follows the paper's three levels:
//
//  1. Device grouping — GPUs of every type are divided evenly across
//     candidate data-parallel serving instances; groupings that cannot hold
//     the KV cache of the expected decoding load are filtered out.
//  2. Pipeline partition — within a group, GPUs of one type form one
//     unified pipeline stage; layers are apportioned to minimize Cp, the
//     maximum per-stage cost under perfect scaling. Then the exclusion
//     heuristic removes GPUs from the lowest-end type upward while
//     Cp(σ−κ)/Cp(σ) ≤ 1+Δ, sending them to the Attention-worker pool.
//  3. Intra-stage search — each unified stage explores tensor×pipeline
//     combinations of its devices, costed with the α-β communication model
//     and the roofline compute model (as HexGen does for C_comm + C_comp).
package parallelizer

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/perf"
)

// Workload describes the request distribution R the plan must serve.
type Workload struct {
	// DecodeBatch is the expected number of concurrently decoding
	// requests across the whole cluster.
	DecodeBatch int
	// AvgContext is the expected context length during decoding.
	AvgContext int
	// PrefillBatch is the typical number of prompts prefilled together.
	PrefillBatch int
	// AvgPrompt is the expected prompt length.
	AvgPrompt int
	// AvgOutput is the expected number of generated tokens; it weights
	// decode cost against prefill cost in the objective.
	AvgOutput int
}

// Validate reports workload errors.
func (w Workload) Validate() error {
	if w.DecodeBatch <= 0 || w.AvgContext <= 0 || w.PrefillBatch <= 0 || w.AvgPrompt <= 0 || w.AvgOutput <= 0 {
		return fmt.Errorf("parallelizer: workload fields must be positive: %+v", w)
	}
	return nil
}

// DefaultWorkload is a moderate chat-serving operating point.
func DefaultWorkload() Workload {
	return Workload{DecodeBatch: 64, AvgContext: 600, PrefillBatch: 4, AvgPrompt: 400, AvgOutput: 240}
}

// Options tunes the search.
type Options struct {
	// Delta is the exclusion threshold: a GPU is demoted to Attention
	// worker if removing it raises Cp by at most this fraction. The paper
	// defaults to 0.05.
	Delta float64
	// ExtendedSearch additionally evaluates tier-suffix primary sets (only
	// the top k GPU tiers serve dense modules) under the full comm-aware
	// cost. The paper's Cp criterion is communication-blind by design
	// (§4.1) and can keep a slow tier whose pipeline stage the comm-aware
	// model would drop; this extension closes that gap. Off by default to
	// stay faithful to the paper's heuristic.
	ExtendedSearch bool
	// ForceInstances, when positive, restricts the search to exactly that
	// data-parallel instance count (used by ablations).
	ForceInstances int
}

// DefaultOptions mirrors the paper (Δ = 0.05).
func DefaultOptions() Options { return Options{Delta: 0.05} }

// MemHeadroom is the fraction of device memory reserved for activations
// and fragmentation (not weights, not KV cache). The planner and every
// engine reserve this one value, so a plan's cache is the built engine's.
const MemHeadroom = 0.08

// cacheTolerance picks, among groupings whose objective is within
// (1+cacheTolerance) of the best, the one with the largest KV capacity:
// latency within tolerance, serving capacity maximized.
const cacheTolerance = 0.15

// Stage is one pipeline stage of primary workers: devices of a single GPU
// type arranged as a TP×PP grid holding Layers transformer layers.
type Stage struct {
	Spec    hardware.GPUSpec
	Devices []hardware.DeviceID
	TP      int
	PP      int
	Layers  int
}

// Instance is one data-parallel serving instance.
type Instance struct {
	Stages []Stage
	// AttentionWorkers are this instance's pooled devices: they hold KV
	// cache and compute decode attention but no dense modules.
	AttentionWorkers []hardware.DeviceID
}

// PrimaryDevices lists all primary-worker devices of the instance.
func (in Instance) PrimaryDevices() []hardware.DeviceID {
	var out []hardware.DeviceID
	for _, s := range in.Stages {
		out = append(out, s.Devices...)
	}
	return out
}

// AllDevices lists every device of the instance.
func (in Instance) AllDevices() []hardware.DeviceID {
	return append(in.PrimaryDevices(), in.AttentionWorkers...)
}

// Plan is the output of the search.
type Plan struct {
	Instances []Instance
	// DecodeStepCost and PrefillCost are the modeled per-iteration dense
	// costs of one instance under the workload's per-instance share.
	DecodeStepCost float64
	PrefillCost    float64
	// Objective is the total modeled cost the search minimized.
	Objective float64
	// CacheCapacity is the KV bytes the plan can hold cluster-wide.
	CacheCapacity int64
	// Evaluated counts candidate configurations costed.
	Evaluated int
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
}

// NumAttentionWorkers counts pooled devices across instances.
func (p *Plan) NumAttentionWorkers() int {
	n := 0
	for _, in := range p.Instances {
		n += len(in.AttentionWorkers)
	}
	return n
}

// String renders a compact plan description.
func (p *Plan) String() string {
	s := fmt.Sprintf("%d instance(s), obj=%.4fs, cache=%.1fGB\n", len(p.Instances), p.Objective, float64(p.CacheCapacity)/1e9)
	for i, in := range p.Instances {
		s += fmt.Sprintf("  instance %d:\n", i)
		for _, st := range in.Stages {
			s += fmt.Sprintf("    stage %s x%d: %d layers, TP=%d PP=%d\n", st.Spec.Name, len(st.Devices), st.Layers, st.TP, st.PP)
		}
		if len(in.AttentionWorkers) > 0 {
			s += fmt.Sprintf("    attention workers: %d\n", len(in.AttentionWorkers))
		}
	}
	return s
}

// Search runs the hierarchical exploration and returns the best plan.
func Search(cluster *hardware.Cluster, est *perf.Estimator, wl Workload, opts Options) (*Plan, error) {
	start := time.Now()
	if cluster == nil || cluster.NumDevices() == 0 {
		return nil, fmt.Errorf("parallelizer: empty cluster")
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	if opts.Delta < 0 {
		return nil, fmt.Errorf("parallelizer: negative Delta %g", opts.Delta)
	}
	cfg := est.Config()
	groups := cluster.DevicesByType()

	// Level 1: candidate instance counts d must divide every type's count.
	var candidates []int
	maxD := len(cluster.Devices)
	for d := 1; d <= maxD; d++ {
		ok := true
		for _, g := range groups {
			if len(g.IDs)%d != 0 {
				ok = false
				break
			}
		}
		if ok {
			candidates = append(candidates, d)
		}
	}

	var feasible []*Plan
	evaluated := 0
	for _, d := range candidates {
		if opts.ForceInstances > 0 && d != opts.ForceInstances {
			continue
		}
		plan, evals, err := searchGrouping(cluster, est, cfg, wl, opts, groups, d)
		evaluated += evals
		if err != nil {
			continue // infeasible grouping
		}
		feasible = append(feasible, plan)
	}
	if len(feasible) == 0 {
		return nil, fmt.Errorf("parallelizer: no feasible configuration for %s on %s", cfg.Name, cluster)
	}
	// Best objective, then the largest cache within tolerance of it.
	minObj := math.Inf(1)
	for _, p := range feasible {
		if p.Objective < minObj {
			minObj = p.Objective
		}
	}
	best := feasible[0]
	for _, p := range feasible {
		within := p.Objective <= minObj*(1+cacheTolerance)
		bestWithin := best.Objective <= minObj*(1+cacheTolerance)
		switch {
		case within && !bestWithin:
			best = p
		case within == bestWithin && p.CacheCapacity > best.CacheCapacity:
			best = p
		}
	}
	best.Evaluated = evaluated
	best.Elapsed = time.Since(start)
	return best, nil
}

// searchGrouping builds and costs the best plan with d data-parallel
// instances.
func searchGrouping(cluster *hardware.Cluster, est *perf.Estimator, cfg model.Config, wl Workload, opts Options, groups []hardware.TypeGroup, d int) (*Plan, int, error) {
	evaluated := 0

	// Per-instance workload share.
	decodeBatch := ceilDiv(wl.DecodeBatch, d)
	prefillBatch := ceilDiv(wl.PrefillBatch, d)

	// Slice each type's devices across instances.
	instDevices := make([][]hardware.TypeGroup, d)
	for i := 0; i < d; i++ {
		for _, g := range groups {
			per := len(g.IDs) / d
			ids := append([]hardware.DeviceID(nil), g.IDs[i*per:(i+1)*per]...)
			instDevices[i] = append(instDevices[i], hardware.TypeGroup{Spec: g.Spec, IDs: ids})
		}
	}

	// All instances are symmetric (same type counts); search once and
	// replicate the structure, instantiating per-instance device IDs.
	proto, evals, err := searchInstance(cluster, est, cfg, wl, opts, instDevices[0], decodeBatch, prefillBatch)
	evaluated += evals
	if err != nil {
		return nil, evaluated, err
	}

	plan := &Plan{DecodeStepCost: proto.decodeCost, PrefillCost: proto.prefillCost}
	for i := 0; i < d; i++ {
		inst, err := instantiate(proto, instDevices[i])
		if err != nil {
			return nil, evaluated, err
		}
		plan.Instances = append(plan.Instances, inst)
	}
	plan.Objective = proto.objective
	plan.CacheCapacity = int64(d) * proto.cacheCapacity

	// KV-capacity filter (level 1): the grouping must hold the decoding
	// load of R.
	required := int64(float64(wl.DecodeBatch) * float64(wl.AvgContext) * float64(cfg.KVBytesPerToken()))
	if plan.CacheCapacity < required {
		return nil, evaluated, fmt.Errorf("parallelizer: grouping d=%d holds %.1fGB cache, needs %.1fGB", d, float64(plan.CacheCapacity)/1e9, float64(required)/1e9)
	}
	return plan, evaluated, nil
}

// protoInstance is the searched structure of one instance before device IDs
// are bound: per-type primary counts, per-stage (tp, pp, layers).
type protoInstance struct {
	stages        []protoStage
	attnPerType   map[string]int // demoted device count per type name
	decodeCost    float64
	prefillCost   float64
	objective     float64
	cacheCapacity int64
}

type protoStage struct {
	spec   hardware.GPUSpec
	count  int
	tp, pp int
	layers int
}

// searchInstance performs levels 2 and 3 for one instance built from the
// given per-type device groups.
func searchInstance(cluster *hardware.Cluster, est *perf.Estimator, cfg model.Config, wl Workload, opts Options, typeGroups []hardware.TypeGroup, decodeBatch, prefillBatch int) (*protoInstance, int, error) {
	evaluated := 0

	// Working state: per-type primary-worker counts, initially everything.
	states := make([]typeState, 0, len(typeGroups))
	for _, g := range typeGroups {
		if len(g.IDs) > 0 {
			states = append(states, typeState{spec: g.Spec, total: len(g.IDs), prim: len(g.IDs)})
		}
	}
	if len(states) == 0 {
		return nil, evaluated, fmt.Errorf("parallelizer: empty instance")
	}

	// perLayerCost under perfect scaling: dense layer time divided by the
	// stage's device count.
	cp := func() (float64, bool) {
		var unit []float64
		for _, s := range states {
			if s.prim > 0 {
				d := est.Compile(s.spec, 1)
				unit = append(unit, d.DenseLayerTime(decodeBatch)/float64(s.prim))
			}
		}
		if len(unit) == 0 {
			return 0, false
		}
		layers := apportionMinMax(cfg.Layers, unit)
		maxCost := 0.0
		for i, l := range layers {
			if c := float64(l) * unit[i]; c > maxCost {
				maxCost = c
			}
		}
		return maxCost, true
	}

	// Weight-fit check: every primary device must hold its layer shard.
	weightsFit := func() bool {
		stages := activeStages(states, cfg, est, decodeBatch)
		for _, st := range stages {
			perDev := float64(st.layers) * float64(cfg.LayerWeightBytes()) / float64(st.count)
			budget := float64(st.spec.MemBytes) * (1 - MemHeadroom)
			if perDev > budget {
				return false
			}
		}
		return true
	}

	if !weightsFit() {
		return nil, evaluated, fmt.Errorf("parallelizer: model %s does not fit on instance primaries", cfg.Name)
	}

	// Level 2 exclusion heuristic: walk types from lowest to highest tier,
	// removing devices while the Cp ratio stays within 1+Δ.
	base, ok := cp()
	if !ok {
		return nil, evaluated, fmt.Errorf("parallelizer: no primary workers")
	}
	order := make([]int, len(states))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return states[order[a]].spec.Tier < states[order[b]].spec.Tier })

exclusion:
	for _, idx := range order {
		for states[idx].prim > 0 {
			// Never remove the last primary of the whole instance.
			totalPrim := 0
			for _, s := range states {
				totalPrim += s.prim
			}
			if totalPrim == 1 {
				break exclusion
			}
			states[idx].prim--
			evaluated++
			after, ok := cp()
			if !ok || !weightsFit() || after/base > 1+opts.Delta {
				states[idx].prim++ // revert
				break exclusion
			}
			base = after
		}
	}

	// Candidate primary sets: the paper's Cp-greedy result, plus — under
	// ExtendedSearch — every tier-suffix drop (only the top k tiers serve
	// as primaries) evaluated with the full comm-aware level-3 model.
	candidates := [][]typeState{cloneStates(states)}
	if opts.ExtendedSearch {
		tierOrder := make([]int, len(states))
		for i := range tierOrder {
			tierOrder[i] = i
		}
		sort.Slice(tierOrder, func(a, b int) bool { return states[tierOrder[a]].spec.Tier > states[tierOrder[b]].spec.Tier })
		for keep := 1; keep <= len(states); keep++ {
			cand := cloneStates(states)
			for rank, idx := range tierOrder {
				if rank < keep {
					cand[idx].prim = cand[idx].total
				} else {
					cand[idx].prim = 0
				}
			}
			candidates = append(candidates, cand)
		}
	}

	var best *protoInstance
	for _, cand := range candidates {
		proto, evals, err := assembleProto(cluster, est, cfg, wl, typeGroups, cand, decodeBatch, prefillBatch)
		evaluated += evals
		if err != nil {
			continue
		}
		if best == nil || proto.objective < best.objective {
			best = proto
		}
	}
	if best == nil {
		return nil, evaluated, fmt.Errorf("parallelizer: no feasible primary-worker layout for %s", cfg.Name)
	}
	return best, evaluated, nil
}

// cloneStates copies a typeState slice.
func cloneStates(states []typeState) []typeState {
	return append([]typeState(nil), states...)
}

// assembleProto runs level 3 (TP×PP search, comm-aware costing) and the
// capacity accounting for one fixed primary-worker assignment.
func assembleProto(cluster *hardware.Cluster, est *perf.Estimator, cfg model.Config, wl Workload, typeGroups []hardware.TypeGroup, states []typeState, decodeBatch, prefillBatch int) (*protoInstance, int, error) {
	evaluated := 0
	stages := activeStages(states, cfg, est, decodeBatch)
	if len(stages) == 0 {
		return nil, evaluated, fmt.Errorf("parallelizer: no primary workers")
	}
	// Weight fit for this assignment.
	for _, st := range stages {
		perDev := float64(st.layers) * float64(cfg.LayerWeightBytes()) / float64(st.count)
		if perDev > float64(st.spec.MemBytes)*(1-MemHeadroom) {
			return nil, evaluated, fmt.Errorf("parallelizer: %s stage over weight budget", st.spec.Name)
		}
	}
	var protoStages []protoStage
	var decodeCost, prefillCost float64
	prompts := make([]int, prefillBatch)
	for i := range prompts {
		prompts[i] = wl.AvgPrompt
	}
	for _, st := range stages {
		bestCost := math.Inf(1)
		var bestTP, bestPP int
		var bestDecode, bestPrefill float64
		link := worstIntraTypeLink(cluster, typeGroups, st.spec.Name, st.count)
		for tp := 1; tp <= st.count; tp++ {
			if st.count%tp != 0 {
				continue
			}
			pp := st.count / tp
			if pp > st.layers {
				continue
			}
			evaluated++
			sc := CompileStage(est, Stage{Spec: st.spec, TP: tp, PP: pp, Layers: st.layers}, link)
			dec := sc.DecodeTime(decodeBatch)
			pre := sc.PrefillTime(prompts)
			total := float64(wl.AvgOutput)*dec + pre
			if total < bestCost {
				bestCost, bestTP, bestPP, bestDecode, bestPrefill = total, tp, pp, dec, pre
			}
		}
		if math.IsInf(bestCost, 1) {
			return nil, evaluated, fmt.Errorf("parallelizer: no TP/PP layout for stage %s", st.spec.Name)
		}
		protoStages = append(protoStages, protoStage{spec: st.spec, count: st.count, tp: bestTP, pp: bestPP, layers: st.layers})
		decodeCost += bestDecode
		prefillCost += bestPrefill
	}

	// Inter-stage pipeline transfers.
	if len(protoStages) > 1 {
		hop := cluster.InterLink // unified stages are per-type ⇒ usually cross-host
		decodeCost += float64(len(protoStages)-1) * perf.P2PTime(hop, cfg.HiddenStateBytes(decodeBatch))
		prefillCost += float64(len(protoStages)-1) * perf.P2PTime(hop, cfg.HiddenStateBytes(prefillBatch*wl.AvgPrompt))
	}
	// LM head on the last stage.
	last := protoStages[len(protoStages)-1]
	lm := est.Compile(last.spec, last.tp)
	decodeCost += lm.LMHeadTime(decodeBatch)
	prefillCost += lm.LMHeadTime(prefillBatch)

	// Cache capacity: leftover memory on primaries plus all memory on
	// attention workers (minus headroom).
	var cache float64
	attnPerType := map[string]int{}
	for _, s := range states {
		demoted := s.total - s.prim
		if demoted > 0 {
			attnPerType[s.spec.Name] = demoted
			cache += float64(demoted) * float64(s.spec.MemBytes) * (1 - MemHeadroom)
		}
	}
	for _, st := range protoStages {
		perDev := float64(st.spec.MemBytes)*(1-MemHeadroom) - float64(st.layers)*float64(cfg.LayerWeightBytes())/float64(st.count)
		if perDev < 0 {
			perDev = 0
		}
		cache += float64(st.count) * perDev
	}

	return &protoInstance{
		stages:        protoStages,
		attnPerType:   attnPerType,
		decodeCost:    decodeCost,
		prefillCost:   prefillCost,
		objective:     float64(wl.AvgOutput)*decodeCost + prefillCost,
		cacheCapacity: int64(cache),
	}, evaluated, nil
}

// typeState tracks one GPU type's primary-worker count during the
// exclusion heuristic.
type typeState struct {
	spec  hardware.GPUSpec
	total int
	prim  int
}

// activeStage captures a unified per-type stage after apportionment.
type activeStage struct {
	spec   hardware.GPUSpec
	count  int
	layers int
}

// activeStages apportions layers across the currently active per-type
// primary groups in tier order (high to low — pipeline flows downward).
func activeStages(states []typeState, cfg model.Config, est *perf.Estimator, decodeBatch int) []activeStage {
	var idx []int
	for i, s := range states {
		if s.prim > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return states[idx[a]].spec.Tier > states[idx[b]].spec.Tier })
	unit := make([]float64, len(idx))
	for k, i := range idx {
		d := est.Compile(states[i].spec, 1)
		unit[k] = d.DenseLayerTime(decodeBatch) / float64(states[i].prim)
	}
	layers := apportionMinMax(cfg.Layers, unit)
	out := make([]activeStage, 0, len(idx))
	for k, i := range idx {
		if layers[k] == 0 {
			continue
		}
		out = append(out, activeStage{spec: states[i].spec, count: states[i].prim, layers: layers[k]})
	}
	return out
}

// apportionMinMax splits total layers across stages with the given
// per-layer costs so that the maximum stage cost is minimized. It starts
// from a proportional split and then greedily moves single layers off the
// bottleneck stage while doing so lowers the maximum; a stage may end up
// with zero layers (its devices contribute nothing and are candidates for
// demotion to attention workers).
func apportionMinMax(total int, unitCost []float64) []int {
	n := len(unitCost)
	out := make([]int, n)
	if n == 0 || total <= 0 {
		return out
	}
	var wsum float64
	for _, c := range unitCost {
		if c > 0 {
			wsum += 1 / c
		}
	}
	if wsum <= 0 {
		out[0] = total
		return out
	}
	assigned := 0
	for i, c := range unitCost {
		if c > 0 {
			out[i] = int(float64(total) / c / wsum)
			assigned += out[i]
		}
	}
	// Distribute the remainder to the stages where it hurts least.
	for assigned < total {
		best, bestCost := -1, math.Inf(1)
		for i, c := range unitCost {
			if c <= 0 {
				continue
			}
			if nc := float64(out[i]+1) * c; nc < bestCost {
				bestCost = nc
				best = i
			}
		}
		out[best]++
		assigned++
	}
	// Local improvement: move a layer off the bottleneck while the max
	// strictly decreases.
	for iter := 0; iter < total*n; iter++ {
		maxI, maxC := -1, 0.0
		for i, c := range unitCost {
			if out[i] > 0 && float64(out[i])*c > maxC {
				maxC = float64(out[i]) * c
				maxI = i
			}
		}
		if maxI < 0 {
			break
		}
		dst, dstCost := -1, math.Inf(1)
		for i, c := range unitCost {
			if i == maxI || c <= 0 {
				continue
			}
			if nc := float64(out[i]+1) * c; nc < dstCost {
				dstCost = nc
				dst = i
			}
		}
		if dst < 0 || dstCost >= maxC {
			break
		}
		out[maxI]--
		out[dst]++
	}
	return out
}

// worstIntraTypeLink finds the slowest link inside the first `count`
// devices of the named type group — the bottleneck for TP collectives.
func worstIntraTypeLink(cluster *hardware.Cluster, groups []hardware.TypeGroup, name string, count int) hardware.LinkSpec {
	var ids []hardware.DeviceID
	for _, g := range groups {
		if g.Spec.Name == name {
			ids = g.IDs
			break
		}
	}
	if len(ids) > count {
		ids = ids[:count]
	}
	if len(ids) < 2 {
		return hardware.Loopback
	}
	worst := cluster.Link(ids[0], ids[1])
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			l := cluster.Link(ids[i], ids[j])
			if l.Beta < worst.Beta {
				worst = l
			}
		}
	}
	return worst
}

// instantiate binds the searched proto structure to concrete device IDs of
// one instance: primaries come first from each type group, demoted devices
// become attention workers.
func instantiate(proto *protoInstance, typeGroups []hardware.TypeGroup) (Instance, error) {
	byName := map[string][]hardware.DeviceID{}
	for _, g := range typeGroups {
		byName[g.Spec.Name] = g.IDs
	}
	var inst Instance
	for _, st := range proto.stages {
		ids, ok := byName[st.spec.Name]
		if !ok || len(ids) < st.count {
			return Instance{}, fmt.Errorf("parallelizer: instance lacks %d %s devices", st.count, st.spec.Name)
		}
		inst.Stages = append(inst.Stages, Stage{
			Spec:    st.spec,
			Devices: append([]hardware.DeviceID(nil), ids[:st.count]...),
			TP:      st.tp,
			PP:      st.pp,
			Layers:  st.layers,
		})
		byName[st.spec.Name] = ids[st.count:]
	}
	// Everything not consumed by a stage is an attention worker.
	for _, g := range typeGroups {
		inst.AttentionWorkers = append(inst.AttentionWorkers, byName[g.Spec.Name]...)
	}
	return inst, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
