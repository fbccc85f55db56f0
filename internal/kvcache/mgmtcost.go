package kvcache

// The cache-management cost model prices the CPU-side work of a decode
// step, reproducing the trade-off of Fig. 15(b): managing blocks per head
// group issues more (smaller) table operations than vLLM's per-token
// scheme, costing extra on the store path, while the block-indexing work
// on the fetch path parallelizes across CPU cores and ends up faster.
//
// Its constants are the Fig. 15(b) reproduction's: ~3 µs per store round
// plus 10 ns per table op, ~2 µs per fetch plus 50 ns per block index,
// 64-way CPU parallelism. They are typed, so every sum is rounded to
// float64 as it would be at run time.
const (
	// storeFixed is the fixed kernel/launch cost of a store round.
	storeFixed float64 = 3e-6
	// storePerOp is the cost of one block-table insert/append.
	storePerOp float64 = 10e-9
	// fetchFixed is the fixed cost of assembling a fetch.
	fetchFixed float64 = 2e-6
	// fetchPerOp is the single-core cost of indexing one block.
	fetchPerOp float64 = 50e-9
	// mgmtCores is the CPU parallelism available to head-wise block
	// indexing.
	mgmtCores float64 = 64
)

// TokenWiseStore is vLLM's per-token store: one table append per step.
func TokenWiseStore() float64 {
	return storeFixed + storePerOp
}

// HeadWiseStore is Hetis' per-group store: one append per head group.
func HeadWiseStore(groups int) float64 {
	return storeFixed + float64(groups)*storePerOp
}

// TokenWiseFetch indexes ctxBlocks blocks on a single core.
func TokenWiseFetch(ctxBlocks int) float64 {
	return fetchFixed + float64(ctxBlocks)*fetchPerOp
}

// HeadWiseFetch indexes groups×ctxBlocks block entries spread across the
// mgmtCores workers.
func HeadWiseFetch(groups, ctxBlocks int) float64 {
	ops := float64(groups) * float64(ctxBlocks)
	return fetchFixed + ops*fetchPerOp/mgmtCores
}
