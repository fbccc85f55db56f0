// Service-level objectives: per-request attainment against TTFT/TPOT
// targets, goodput (attained requests per second), and per-tenant
// breakdowns. Real serving systems are judged on how much traffic they
// serve *within* latency targets, not on raw latency summaries; these
// helpers make that the first-class metric of scenario runs.

package metrics

import "sort"

// SLOTarget is a latency service objective. A zero field leaves that
// dimension unconstrained, so the zero SLOTarget is attained by every
// finished request.
type SLOTarget struct {
	TTFT float64 // max time-to-first-token, seconds (0 = unconstrained)
	TPOT float64 // max time per output token, seconds (0 = unconstrained)
}

// IsZero reports whether no objective is set.
func (s SLOTarget) IsZero() bool { return s.TTFT == 0 && s.TPOT == 0 }

// Attained reports whether the request met every set objective. A dropped
// request never attains — even against the zero SLOTarget — because a
// request the system refused to serve met no latency target at all.
func (s SLOTarget) Attained(r RequestRecord) bool {
	return !r.Dropped && s.met(r.TTFT(), r.TPOT())
}

// met reports whether a finished request's TTFT and TPOT meet every set
// objective.
func (s SLOTarget) met(ttft, tpot float64) bool {
	return !(s.TTFT > 0 && ttft > s.TTFT) && !(s.TPOT > 0 && tpot > s.TPOT)
}

// attained counts the recorded requests meeting the SLO.
func (c *Recorder) attained(slo SLOTarget) int {
	n := 0
	for _, ch := range c.chunks() {
		for _, r := range ch {
			if slo.Attained(r) {
				n++
			}
		}
	}
	return n
}

// TenantStats is one tenant's slice of a run.
type TenantStats struct {
	Tenant     string
	Count      int     // completed requests
	Dropped    int     // dropped requests
	Attainment float64 // attained fraction of (completed + dropped)
	Goodput    float64 // attained req/s over the horizon
	TTFT       Summary
	TPOT       Summary
	NormLat    Summary
}

// Breakdown summarizes the run as a whole and split into groups: group
// maps a record's tenant to its group name (the identity gives per-tenant
// rows). groups holds one entry per group seen, sorted by name; all is the
// run-wide row, with an empty Tenant.
//
// It copies no record. One walk counts each group's completed, dropped and
// attained records; a second lays every group's TTFT, TPOT and normalized
// latency values out contiguously in one buffer, metric-major, so each
// metric's run-wide series is the concatenation of its group segments.
// Each segment is sorted once; the run-wide series is sorted again only
// when more than one group has completions. The results equal summarizing
// each group's records separately: a sorted multiset is unique, and the
// counts are the same integers.
func (c *Recorder) Breakdown(slo SLOTarget, horizon float64, group func(tenant string) string) (all TenantStats, groups []TenantStats) {
	g := grouper{group: group, index: map[string]int{}, lastIdx: -1}
	var tallies []tally
	for _, ch := range c.chunks() {
		for _, r := range ch {
			i := g.of(r.Tenant)
			if i == len(tallies) {
				tallies = append(tallies, tally{})
			}
			t := &tallies[i]
			if r.Dropped {
				t.dropped++
			} else {
				t.completed++
			}
			if slo.Attained(r) {
				t.attained++
			}
		}
	}

	// Put the groups in name order and renumber them to match, so the
	// second walk's group index is its row.
	names := append([]string(nil), g.names...)
	sort.Strings(names)
	groups = make([]TenantStats, len(names))
	off := make([]int, len(names)) // segment start within each metric's region
	var sum tally
	for j, name := range names {
		t := tallies[g.index[name]]
		g.index[name] = j
		off[j] = sum.completed
		groups[j] = t.stats(name, horizon)
		sum.completed += t.completed
		sum.dropped += t.dropped
		sum.attained += t.attained
	}
	g.lastIdx = -1
	all = sum.stats("", horizon)
	n := sum.completed
	if n == 0 {
		return all, groups
	}

	buf := make([]float64, 4*n)
	scratch := buf[3*n:]
	pos := append([]int(nil), off...)
	for _, ch := range c.chunks() {
		for _, r := range ch {
			if r.Dropped {
				continue
			}
			j := g.of(r.Tenant)
			p := pos[j]
			buf[p] = r.TTFT()
			buf[n+p] = r.TPOT()
			buf[2*n+p] = r.NormLatency()
			pos[j]++
		}
	}
	whole := -1 // the group holding every completion, if one does
	for j := range groups {
		if groups[j].Count == n {
			whole = j
		}
	}
	for m := 0; m < 3; m++ {
		region := buf[m*n : (m+1)*n]
		for j := range groups {
			ts := &groups[j]
			*ts.metric(m) = summarizeSorted(region[off[j]:off[j]+ts.Count], scratch)
		}
		if whole >= 0 {
			*all.metric(m) = *groups[whole].metric(m)
		} else {
			*all.metric(m) = summarizeSorted(region, scratch)
		}
	}
	return all, groups
}

// tally is one group's record counts.
type tally struct{ completed, dropped, attained int }

// stats is the counted half of a TenantStats; the summaries are filled
// from the sorted values.
func (t tally) stats(name string, horizon float64) TenantStats {
	ts := TenantStats{Tenant: name, Count: t.completed, Dropped: t.dropped}
	if n := t.completed + t.dropped; n > 0 {
		ts.Attainment = float64(t.attained) / float64(n)
	}
	if horizon > 0 {
		ts.Goodput = float64(t.attained) / horizon
	}
	return ts
}

// metric addresses summary m of ts: 0 TTFT, 1 TPOT, 2 NormLat.
func (ts *TenantStats) metric(m int) *Summary {
	switch m {
	case 0:
		return &ts.TTFT
	case 1:
		return &ts.TPOT
	}
	return &ts.NormLat
}

// grouper assigns records to Breakdown's groups, numbered in discovery
// order until Breakdown renumbers them. Neighbouring records often share a
// tenant, so the last tenant's group is kept to skip the group call and
// the map lookup.
type grouper struct {
	group   func(tenant string) string
	index   map[string]int // group name -> group number
	names   []string       // group names, discovery order
	last    string
	lastIdx int // group of last, or -1 before the first record
}

func (g *grouper) of(tenant string) int {
	if g.lastIdx >= 0 && tenant == g.last {
		return g.lastIdx
	}
	name := g.group(tenant)
	i, ok := g.index[name]
	if !ok {
		i = len(g.names)
		g.index[name] = i
		g.names = append(g.names, name)
	}
	g.last, g.lastIdx = tenant, i
	return i
}
