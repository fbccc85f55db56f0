// Sink merging for the fleet layer: every shard of a sharded run feeds its
// own private sink, and the front door combines them afterwards. Merging
// is defined so that the merged sink is observation-equivalent to one sink
// that saw every shard's stream — exact counters add, record stores
// concatenate in merge order, and quantile sketches combine bucket-wise
// (a DDSketch merge is lossless: same cells, summed counts). The fleet
// calls MergeSink in shard-index order, which is what makes merged output
// independent of shard completion order.

package metrics

import "fmt"

// MergeableSink is a Sink that can absorb the contents of a same-shaped
// sibling. MergeSink(other) makes the receiver equivalent to having
// observed its own stream followed by other's stream; other is left in an
// unspecified state and must not be used afterwards. Merging is shape- and
// config-checked: a sink only merges with its own type, matching SLO,
// window width, and sketch accuracy.
type MergeableSink interface {
	Sink
	MergeSink(other Sink) error
}

// MergeSinks merges each src into dst in order. It is the fleet's
// one-liner for folding per-shard sinks: pass the shards' sinks in shard
// index order and dst becomes the whole-run view.
func MergeSinks(dst Sink, srcs ...Sink) error {
	m, ok := dst.(MergeableSink)
	if !ok {
		return fmt.Errorf("metrics: %T is not mergeable", dst)
	}
	for i, s := range srcs {
		if err := m.MergeSink(s); err != nil {
			return fmt.Errorf("metrics: merging sink %d: %w", i, err)
		}
	}
	return nil
}

// mergeInto dispatches one sub-sink merge, for the composite sinks.
func mergeInto(dst, src Sink) error {
	m, ok := dst.(MergeableSink)
	if !ok {
		return fmt.Errorf("metrics: %T is not mergeable", dst)
	}
	return m.MergeSink(src)
}

// Merge folds other into q. Both sketches must share an alpha — the cell
// boundaries are a function of it, so cross-accuracy merging would smear
// counts across cells. The merge is lossless: the result is bucket-for-
// bucket identical to one sketch that observed both streams.
func (q *QuantileSketch) Merge(other *QuantileSketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if other.alpha != q.alpha {
		return fmt.Errorf("metrics: cannot merge sketches with alpha %g and %g", q.alpha, other.alpha)
	}
	q.count += other.count
	q.zero += other.zero
	if len(other.counts) == 0 {
		return nil
	}
	q.cover(other.offset, other.offset+len(other.counts)-1)
	dst := q.counts[other.offset-q.offset:]
	for i, c := range other.counts {
		dst[i] += c
	}
	return nil
}

// Merge folds other into s; exact fields add, sketches merge bucket-wise.
func (s *StreamStat) Merge(other *StreamStat) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if err := s.sketch.Merge(other.sketch); err != nil {
		return err
	}
	if s.count == 0 || other.min < s.min {
		s.min = other.min
	}
	if s.count == 0 || other.max > s.max {
		s.max = other.max
	}
	s.count += other.count
	s.sum += other.sum
	return nil
}

// MergeSink implements MergeableSink: the merged recorder holds its own
// records followed by other's, in other's insertion order — so folding
// shard recorders in shard index order yields the same record sequence
// regardless of which shard finished first. Attainment stays exact because
// it is recomputed from records; the receiver's SLO governs the merged
// Snapshot.
func (c *Recorder) MergeSink(other Sink) error {
	o, ok := other.(*Recorder)
	if !ok {
		return fmt.Errorf("metrics: cannot merge %T into *Recorder", other)
	}
	for _, chunk := range o.chunks() {
		c.AddBatch(chunk)
	}
	return nil
}

// MergeSink implements MergeableSink for the streaming sink; both sides
// must measure the same SLO or the merged attainment counter would mix
// objectives.
func (s *StreamingSink) MergeSink(other Sink) error {
	o, ok := other.(*StreamingSink)
	if !ok {
		return fmt.Errorf("metrics: cannot merge %T into *StreamingSink", other)
	}
	if o.slo != s.slo {
		return fmt.Errorf("metrics: cannot merge streaming sinks with different SLOs (%+v vs %+v)", s.slo, o.slo)
	}
	if err := s.ttft.Merge(o.ttft); err != nil {
		return fmt.Errorf("metrics: merging TTFT: %w", err)
	}
	if err := s.tpot.Merge(o.tpot); err != nil {
		return fmt.Errorf("metrics: merging TPOT: %w", err)
	}
	if err := s.norm.Merge(o.norm); err != nil {
		return fmt.Errorf("metrics: merging normalized latency: %w", err)
	}
	s.count += o.count
	s.dropped += o.dropped
	s.attained += o.attained
	return nil
}

// MergeSink implements MergeableSink for windowed series. Buckets merge
// by window index, which is keyed to absolute simulated time — shards
// share one clock, so bucket k means the same interval in every shard.
// The merged series spans both inputs' windows.
func (w *WindowedSeries) MergeSink(other Sink) error {
	o, ok := other.(*WindowedSeries)
	if !ok {
		return fmt.Errorf("metrics: cannot merge %T into *WindowedSeries", other)
	}
	if o.window != w.window {
		return fmt.Errorf("metrics: cannot merge windowed series with widths %g and %g", w.window, o.window)
	}
	if o.slo != w.slo {
		return fmt.Errorf("metrics: cannot merge windowed series with different SLOs (%+v vs %+v)", w.slo, o.slo)
	}
	w.count += o.count
	w.dropped += o.dropped
	w.attained += o.attained
	if len(o.accums) == 0 {
		return nil
	}
	if len(w.accums) == 0 {
		w.first = o.first
	}
	if o.first < w.first {
		w.accums = append(make([]*windowAccum, w.first-o.first, w.first-o.first+len(w.accums)), w.accums...)
		w.first = o.first
	}
	w.extend(o.first + len(o.accums) - 1)
	for i, oa := range o.accums {
		if oa == nil {
			continue
		}
		k := o.first + i
		a := w.accum(k)
		a.completions += oa.completions
		a.attained += oa.attained
		a.dropped += oa.dropped
		if err := a.ttft.Merge(oa.ttft); err != nil {
			return fmt.Errorf("metrics: merging window %d TTFT: %w", k, err)
		}
		if err := a.norm.Merge(oa.norm); err != nil {
			return fmt.Errorf("metrics: merging window %d normalized latency: %w", k, err)
		}
	}
	return nil
}

// MergeSink implements MergeableSink for the keyed mux: each of other's
// per-key sub-sinks merges into the same key's sub-sink here, created
// through the factory when the key is new to the receiver. Keys are
// visited in sorted order so factory side effects (if any) fire
// deterministically.
func (m *KeyedMux) MergeSink(other Sink) error {
	o, ok := other.(*KeyedMux)
	if !ok {
		return fmt.Errorf("metrics: cannot merge %T into *KeyedMux", other)
	}
	for _, k := range o.Keys() {
		if err := mergeInto(m.sub(k), o.byKey[k]); err != nil {
			return fmt.Errorf("metrics: merging key %q: %w", k, err)
		}
	}
	return nil
}

// MergeSink implements MergeableSink for Tee by merging element-wise: the
// i-th sub-sink absorbs other's i-th sub-sink. Both tees must have the
// same fan-out, which same-shaped pipelines do by construction.
func (t *Tee) MergeSink(other Sink) error {
	o, ok := other.(*Tee)
	if !ok {
		return fmt.Errorf("metrics: cannot merge %T into *Tee", other)
	}
	if len(o.sinks) != len(t.sinks) {
		return fmt.Errorf("metrics: cannot merge tees with fan-out %d and %d", len(t.sinks), len(o.sinks))
	}
	for i := range t.sinks {
		if err := mergeInto(t.sinks[i], o.sinks[i]); err != nil {
			return fmt.Errorf("metrics: merging tee branch %d: %w", i, err)
		}
	}
	return nil
}
