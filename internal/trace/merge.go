// Ordered trace merging for sharded runs: each shard's log is emitted by
// one sequential event loop and is therefore At-nondecreasing, so the
// fleet's whole-run trace is a k-way merge of sorted streams.

package trace

// MergeByTime merges logs into one new log ordered by event time, breaking
// ties by input position (earlier log wins) so the merged order is a pure
// function of the inputs — never of shard completion order or worker
// count. Inputs must be At-nondecreasing, which every engine-emitted log
// is; nil or empty logs are skipped. The inputs are not consumed.
func MergeByTime(logs ...*Log) *Log {
	out := &Log{}
	type cursor struct {
		p   *page
		i   int
		src int
	}
	heads := make([]cursor, 0, len(logs))
	for src, l := range logs {
		if l == nil || l.head == nil {
			continue
		}
		heads = append(heads, cursor{p: l.head, src: src})
	}
	for len(heads) > 0 {
		best := 0
		for c := 1; c < len(heads); c++ {
			// Strict < keeps ties on the earlier source: heads is ordered by
			// src, and an exhausted cursor is removed without reordering.
			if heads[c].p.ev[heads[c].i].At < heads[best].p.ev[heads[best].i].At {
				best = c
			}
		}
		cur := &heads[best]
		out.Add(cur.p.ev[cur.i])
		cur.i++
		if cur.i == cur.p.n {
			cur.p = cur.p.next
			cur.i = 0
			if cur.p == nil {
				heads = append(heads[:best], heads[best+1:]...)
			}
		}
	}
	return out
}
