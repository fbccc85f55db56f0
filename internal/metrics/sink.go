// The sink layer: engines push finished-request records into a Sink
// instead of materializing them, so measurement cost is chosen by the
// caller — store everything (ExactRecorder, the default, byte-stable for
// golden traces), stream into constant-memory sketches (StreamingSink),
// bucket into time windows (WindowedSeries), or fan out per tenant or any
// other key (KeyedMux). Sinks compose with Tee.

package metrics

import "sort"

// Sink consumes finished-request records as the engines emit them and can
// produce an aggregate Snapshot at any point. Implementations are not
// required to be safe for concurrent Observe calls: each engine run feeds
// exactly one goroutine. The inner sink of a Pipe is fed from the Pipe's
// consumer goroutine while records flow and from the caller after Drain:
// still one goroutine at a time.
type Sink interface {
	// Observe records one finished request.
	Observe(RequestRecord)
	// Snapshot summarizes everything observed so far.
	Snapshot() Snapshot
}

// Snapshot is the uniform aggregate view every sink can produce: counts,
// SLO attainment (against the sink's configured SLO; sinks without one
// count every record as attained, matching the zero SLOTarget), and the
// three standard latency summaries.
type Snapshot struct {
	// Count is the completed-request count; Dropped counts requests the
	// system rejected or shed. Attainment divides by their sum.
	Count    int
	Dropped  int
	Attained int
	TTFT     Summary
	TPOT     Summary
	NormLat  Summary
}

// Attainment is the attained fraction of completed + dropped requests
// (0 when nothing was observed — an idle system attains nothing).
//
// Denominator choice, made explicit for overload scenarios: a sink counts
// one record per completed request plus one per dropped request, so the
// denominator is completed + dropped. Dropped requests never attain (see
// SLOTarget.Attained), so shedding load lowers attainment instead of
// laundering it. Preempted-and-requeued requests appear exactly once — as
// their eventual completion — so a preemption costs latency, not a
// denominator slot.
func (s Snapshot) Attainment() float64 {
	if s.Count+s.Dropped == 0 {
		return 0
	}
	return float64(s.Attained) / float64(s.Count+s.Dropped)
}

// Goodput is the rate of attained completions over the horizon, in
// requests per second. Requests that never finished count against it
// implicitly: they were never observed. Dropped requests were observed
// but never attain, so they count against goodput the same way.
func (s Snapshot) Goodput(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.Attained) / horizon
}

// Stats reads the snapshot as a named TenantStats over the horizon —
// the same fields Recorder.Breakdown fills from stored records.
func (s Snapshot) Stats(name string, horizon float64) TenantStats {
	return TenantStats{
		Tenant:     name,
		Count:      s.Count,
		Dropped:    s.Dropped,
		Attainment: s.Attainment(),
		Goodput:    s.Goodput(horizon),
		TTFT:       s.TTFT,
		TPOT:       s.TPOT,
		NormLat:    s.NormLat,
	}
}

// BatchSink is the optional bulk extension of Sink: a sink that can absorb
// a whole iteration's records in one call. Engines batch the completions
// of each decode iteration; ObserveAll picks this path when available.
// Implementations must process the batch in slice order, exactly as if
// each record were Observed individually.
type BatchSink interface {
	Sink
	// ObserveBatch records the batch in order.
	ObserveBatch([]RequestRecord)
}

// ObserveAll feeds recs to the sink in order, through the sink's batch
// path when it has one. The caller keeps ownership of recs.
func ObserveAll(s Sink, recs []RequestRecord) {
	if len(recs) == 0 {
		return
	}
	if b, ok := s.(BatchSink); ok {
		b.ObserveBatch(recs)
		return
	}
	for _, r := range recs {
		s.Observe(r)
	}
}

// ExactRecorder is the store-everything Sink: the Recorder under its
// sink-architecture name. It keeps every RequestRecord, so summaries are
// exact and golden traces stay byte-identical, at O(n) memory.
type ExactRecorder = Recorder

// NewExactRecorder returns an empty exact sink; slo tunes what Snapshot
// counts as attained (the zero SLOTarget attains everything).
func NewExactRecorder(slo SLOTarget) *ExactRecorder {
	return &Recorder{slo: slo}
}

// Observe implements Sink.
func (c *Recorder) Observe(r RequestRecord) { c.Add(r) }

// ObserveBatch implements BatchSink.
func (c *Recorder) ObserveBatch(recs []RequestRecord) { c.AddBatch(recs) }

// Snapshot implements Sink. Its summaries are Breakdown's run-wide row
// over the completed records, each series sorted once; dropped records are
// skipped, since a zero TTFT from a rejected request would flatter the
// percentiles.
func (c *Recorder) Snapshot() Snapshot {
	all, _ := c.Breakdown(SLOTarget{}, 0, func(string) string { return "" })
	return Snapshot{
		Count:    c.Completed(),
		Dropped:  c.DroppedCount(),
		Attained: c.attained(c.slo),
		TTFT:     all.TTFT,
		TPOT:     all.TPOT,
		NormLat:  all.NormLat,
	}
}

// StreamStat tracks one metric's running aggregate in constant memory:
// exact count/mean/min/max plus a relative-error quantile sketch.
type StreamStat struct {
	count    int
	sum      float64
	min, max float64
	sketch   *QuantileSketch
}

func newStreamStat(alpha float64) *StreamStat {
	return &StreamStat{sketch: newQuantileSketch(alpha)}
}

// Observe absorbs one value.
func (s *StreamStat) Observe(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	s.sketch.Observe(v)
}

// Summary reports the running aggregate; Mean/Min/Max/Count are exact,
// the percentiles carry the sketch's relative-error bound.
func (s *StreamStat) Summary() Summary {
	if s.count == 0 {
		return Summary{}
	}
	return Summary{
		Count: s.count,
		Mean:  s.sum / float64(s.count),
		Min:   s.min,
		Max:   s.max,
		P50:   s.sketch.Quantile(0.50),
		P95:   s.sketch.Quantile(0.95),
		P99:   s.sketch.Quantile(0.99),
	}
}

// StreamingSink summarizes the record stream in O(1) memory per request:
// running mean/min/max/count plus quantile sketches for TTFT, TPOT, and
// normalized latency, and an exact attainment counter against its SLO.
// Memory is bounded by the sketches' bucket counts (data dynamic range),
// never by the trace length.
type StreamingSink struct {
	slo      SLOTarget
	count    int
	dropped  int
	attained int
	ttft     *StreamStat
	tpot     *StreamStat
	norm     *StreamStat
}

// NewStreamingSink returns an empty streaming sink measuring attainment
// against slo, with DefaultSketchAlpha quantile accuracy.
func NewStreamingSink(slo SLOTarget) *StreamingSink {
	return &StreamingSink{
		slo:  slo,
		ttft: newStreamStat(0),
		tpot: newStreamStat(0),
		norm: newStreamStat(0),
	}
}

// Observe implements Sink. Dropped records are counted separately and
// excluded from the latency sketches (see RequestRecord.Dropped).
func (s *StreamingSink) Observe(r RequestRecord) { s.observe(&r) }

// ObserveBatch implements BatchSink: the engines' per-iteration batches
// reach observe without an interface call and a record copy each.
func (s *StreamingSink) ObserveBatch(recs []RequestRecord) {
	for i := range recs {
		s.observe(&recs[i])
	}
}

func (s *StreamingSink) observe(r *RequestRecord) {
	if r.Dropped {
		s.dropped++
		return
	}
	s.count++
	ttft, tpot := r.TTFT(), r.TPOT()
	if s.slo.met(ttft, tpot) {
		s.attained++
	}
	s.ttft.Observe(ttft)
	s.tpot.Observe(tpot)
	s.norm.Observe(r.NormLatency())
}

// Snapshot implements Sink.
func (s *StreamingSink) Snapshot() Snapshot {
	return Snapshot{
		Count:    s.count,
		Dropped:  s.dropped,
		Attained: s.attained,
		TTFT:     s.ttft.Summary(),
		TPOT:     s.tpot.Summary(),
		NormLat:  s.norm.Summary(),
	}
}

// Tee fans every record out to several sinks; Snapshot delegates to the
// first (primary) sink. It composes the pipeline pieces — e.g. an
// aggregate StreamingSink, a per-tenant KeyedMux for the tables and a
// WindowedSeries for the dynamic plots.
type Tee struct {
	sinks []Sink
}

// NewTee builds a tee over primary plus any further sinks.
func NewTee(primary Sink, rest ...Sink) *Tee {
	return &Tee{sinks: append([]Sink{primary}, rest...)}
}

// Observe implements Sink.
func (t *Tee) Observe(r RequestRecord) {
	for _, s := range t.sinks {
		s.Observe(r)
	}
}

// Snapshot implements Sink via the primary sink.
func (t *Tee) Snapshot() Snapshot { return t.sinks[0].Snapshot() }

// KeyedMux fans records out by an arbitrary record→key function, so
// records can be attributed along any dimension — tenant, priority tier,
// dataset, arrival phase — with one sub-sink per distinct key, created on
// demand by the factory. Memory is one sub-sink per distinct key,
// independent of trace length when the sub-sinks are streaming. It does
// not wrap an aggregate sink: compose it behind one with Tee when an
// aggregate view is also needed.
type KeyedMux struct {
	key   func(RequestRecord) string
	make  func(key string) Sink
	byKey map[string]Sink
}

// NewKeyedMux builds a mux classifying records with key; make constructs
// the per-key sinks lazily.
func NewKeyedMux(key func(RequestRecord) string, make func(key string) Sink) *KeyedMux {
	return &KeyedMux{key: key, make: make, byKey: map[string]Sink{}}
}

// Observe implements Sink.
func (m *KeyedMux) Observe(r RequestRecord) { m.sub(m.key(r)).Observe(r) }

// sub returns the sub-sink for key k, making it on first sight.
func (m *KeyedMux) sub(k string) Sink {
	s, ok := m.byKey[k]
	if !ok {
		s = m.make(k)
		m.byKey[k] = s
	}
	return s
}

// Snapshot implements Sink by summing the per-key counts; latency
// summaries stay zero (per-key sketches cannot be merged — read the Key
// sub-sinks for those).
func (m *KeyedMux) Snapshot() Snapshot {
	var s Snapshot
	//hetis:ordered integer field sums; addition is commutative, so key order cannot change the totals
	for _, sub := range m.byKey {
		ss := sub.Snapshot()
		s.Count += ss.Count
		s.Dropped += ss.Dropped
		s.Attained += ss.Attained
	}
	return s
}

// Keys lists the keys seen so far, sorted ascending.
func (m *KeyedMux) Keys() []string {
	out := make([]string, 0, len(m.byKey))
	for k := range m.byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Key returns the sub-sink for a key (nil if never seen).
func (m *KeyedMux) Key(name string) Sink { return m.byKey[name] }
