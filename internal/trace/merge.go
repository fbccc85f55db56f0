// Ordered trace merging for sharded runs: each shard's log is emitted by
// one sequential event loop and is therefore At-nondecreasing, so the
// fleet's whole-run trace is a k-way merge of sorted streams.

package trace

// MergeByTime merges logs into one new log ordered by event time, breaking
// ties by input position (earlier log wins) so the merged order is a pure
// function of the inputs — never of shard completion order or worker
// count. Inputs must be At-nondecreasing, which every engine-emitted log
// is; nil or empty logs are skipped. The inputs are not consumed. Each
// event is decoded from its source and re-interned into the output log's
// own kind and note tables.
func MergeByTime(logs ...*Log) *Log {
	out := &Log{}
	type cursor struct {
		l  *Log
		pi int    // page index
		ss []slot // page pi's stored slots
		i  int    // next slot in ss
	}
	heads := make([]cursor, 0, len(logs))
	for _, l := range logs {
		if l.Len() == 0 {
			continue
		}
		heads = append(heads, cursor{l: l, ss: l.filled(0)})
	}
	for len(heads) > 0 {
		best := 0
		for c := 1; c < len(heads); c++ {
			// Strict < keeps ties on the earlier source: heads is ordered by
			// input position, and an exhausted cursor is removed without
			// reordering. An escaped slot keeps its At, so comparing needs
			// no decode.
			if heads[c].ss[heads[c].i].at < heads[best].ss[heads[best].i].at {
				best = c
			}
		}
		cur := &heads[best]
		out.Add(cur.l.decode(&cur.ss[cur.i]))
		cur.i++
		if cur.i == len(cur.ss) {
			cur.pi++
			cur.i = 0
			if cur.pi == len(cur.l.pages) {
				heads = append(heads[:best], heads[best+1:]...)
			} else {
				cur.ss = cur.l.filled(cur.pi)
			}
		}
	}
	return out
}
