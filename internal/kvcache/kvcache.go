// Package kvcache implements Hetis' head-granular paged KV-cache management
// (§6). Like vLLM, device memory is carved into fixed-size blocks; unlike
// vLLM, a block belongs to a single (request, KV head group) pair, so the
// cache of one request can be spread over several devices at head
// granularity and migrated partially.
//
// The manager tracks one device. Engines create one manager per GPU and a
// Hauler moves blocks between them.
package kvcache

import (
	"errors"
	"fmt"
)

// RequestID identifies a serving request.
type RequestID int64

// ErrNoSpace is returned when a device cannot host the requested blocks.
var ErrNoSpace = errors.New("kvcache: out of cache blocks")

// Config shapes a device cache.
type Config struct {
	// BlockTokens is the number of tokens per block (vLLM default 16).
	BlockTokens int
	// BytesPerGroupToken is the cache footprint of one token of one KV
	// head group across the layers hosted on the device.
	BytesPerGroupToken int64
	// CapacityBytes is the device memory budget for KV cache.
	CapacityBytes int64
}

// BlockBytes is the footprint of one block.
func (c Config) BlockBytes() int64 {
	return int64(c.BlockTokens) * c.BytesPerGroupToken
}

// Entry is one request's allocation on one device, and a stable handle to
// it: a caller holding the *Entry (the Hetis engine caches one per worker
// on the running request) extends it with ExtendEntry without a hash
// lookup. The handle goes stale when the allocation is freed — Free,
// ShrinkGroups to zero, or the request leaving the device in a redispatch,
// eviction or failover. Freed entries are never reused, so a stale handle
// can only be detected, never alias another request; Resolve refreshes
// one by id.
//
// The context length is base plus the manager's step clock, and the block
// count groups × ⌈tokens/BlockTokens⌉; both are derived when read, so a
// batched decode step (Advance) moves every entry without touching it.
type Entry struct {
	id      RequestID
	m       *Manager
	groups  int
	base    int   // tokens − m.clock
	arrival int64 // allocation sequence, drives modified-LIFO eviction
	// idx is the entry's position in its manager's table, -1 once freed.
	idx int
}

// tokens is the entry's context length.
func (e *Entry) tokens() int { return e.base + e.m.clock }

// blocks is the entry's block count.
func (e *Entry) blocks() int { return e.m.blocksFor(e.groups, e.tokens()) }

// Manager allocates head-group cache blocks on one device.
type Manager struct {
	cfg         Config
	totalBlocks int
	freeBlocks  int
	// ents holds the live entries, dense in no particular order (Free
	// swap-removes), for the whole-device walks; reqs indexes them by id.
	ents []*Entry
	reqs map[RequestID]*Entry
	// slab is the unused tail of the chunk new entries are carved from.
	slab        []Entry
	nextArrival int64
	// clock counts Advance steps: every live entry's context grew by one
	// token per step (see Entry). cross is −clock modulo BlockTokens, the
	// phase whose entries fill their last blocks exactly.
	clock, cross int
	// phaseGroups[p] sums the groups of the live entries whose base is p
	// modulo BlockTokens. An entry needs a new block
	// per group exactly when its context is a multiple of BlockTokens, so
	// one step's block demand is a single phase's sum (see StepDemand).
	phaseGroups []int
}

// NewManager creates a manager with the given geometry.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.BlockTokens <= 0 {
		return nil, fmt.Errorf("kvcache: BlockTokens must be positive, got %d", cfg.BlockTokens)
	}
	if cfg.BytesPerGroupToken <= 0 {
		return nil, fmt.Errorf("kvcache: BytesPerGroupToken must be positive, got %d", cfg.BytesPerGroupToken)
	}
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("kvcache: negative capacity %d", cfg.CapacityBytes)
	}
	return &Manager{
		cfg:         cfg,
		totalBlocks: int(cfg.CapacityBytes / cfg.BlockBytes()),
		freeBlocks:  int(cfg.CapacityBytes / cfg.BlockBytes()),
		reqs:        make(map[RequestID]*Entry),
		phaseGroups: make([]int, cfg.BlockTokens),
	}, nil
}

// Config returns the manager geometry.
func (m *Manager) Config() Config { return m.cfg }

// TotalBlocks is the device block capacity.
func (m *Manager) TotalBlocks() int { return m.totalBlocks }

// FreeBlocks is the number of unallocated blocks.
func (m *Manager) FreeBlocks() int { return m.freeBlocks }

// UsedBlocks is the number of allocated blocks.
func (m *Manager) UsedBlocks() int { return m.totalBlocks - m.freeBlocks }

// UsedBytes is the allocated cache volume.
func (m *Manager) UsedBytes() int64 { return int64(m.UsedBlocks()) * m.cfg.BlockBytes() }

// CapacityBytes is the total cache volume the device can hold.
func (m *Manager) CapacityBytes() int64 { return int64(m.totalBlocks) * m.cfg.BlockBytes() }

// Utilization is UsedBlocks/TotalBlocks in [0,1].
func (m *Manager) Utilization() float64 {
	if m.totalBlocks == 0 {
		return 0
	}
	return float64(m.UsedBlocks()) / float64(m.totalBlocks)
}

// blocksFor computes the blocks needed by groups × tokens.
func (m *Manager) blocksFor(groups, tokens int) int {
	return groups * m.perGroup(tokens)
}

// perGroup is the number of blocks one group needs for tokens of context.
func (m *Manager) perGroup(tokens int) int {
	return (tokens + m.cfg.BlockTokens - 1) / m.cfg.BlockTokens
}

// phase is the slot of phaseGroups an entry with the given base counts in.
func (m *Manager) phase(base int) int {
	p := base % m.cfg.BlockTokens
	if p < 0 {
		p += m.cfg.BlockTokens
	}
	return p
}

// addGroups moves n groups of an entry with the given base into (n > 0)
// or out of (n < 0) the phase counters.
func (m *Manager) addGroups(base, n int) {
	m.phaseGroups[m.phase(base)] += n
}

// entrySlabChunk is the number of entries carved per allocation. Entries
// are never reused, so the chunking only amortizes the allocator.
const entrySlabChunk = 64

// Alloc reserves cache for `groups` KV head groups of request id, each with
// `tokens` of context. A request may be allocated only once per device;
// use ExtendEntry to grow it or GrowGroups to add head groups.
func (m *Manager) Alloc(id RequestID, groups, tokens int) error {
	if groups <= 0 || tokens < 0 {
		return fmt.Errorf("kvcache: invalid allocation groups=%d tokens=%d", groups, tokens)
	}
	if _, exists := m.reqs[id]; exists {
		return fmt.Errorf("kvcache: request %d already allocated on device", id)
	}
	need := m.blocksFor(groups, tokens)
	if need > m.freeBlocks {
		return fmt.Errorf("%w: need %d blocks, %d free", ErrNoSpace, need, m.freeBlocks)
	}
	m.freeBlocks -= need
	if len(m.slab) == 0 {
		m.slab = make([]Entry, entrySlabChunk)
	}
	e := &m.slab[0]
	m.slab = m.slab[1:]
	*e = Entry{
		id: id, m: m, groups: groups, base: tokens - m.clock,
		arrival: m.nextArrival, idx: len(m.ents),
	}
	m.addGroups(e.base, groups)
	m.ents = append(m.ents, e)
	m.reqs[id] = e
	m.nextArrival++
	return nil
}

// ExtendEntry grows one request by n tokens across all its head groups
// through its entry handle, allocating new blocks when a group's last
// block fills up (Advance moves every entry at once). A nil or stale
// handle is an error (see Resolve); ErrNoSpace leaves the entry unchanged.
func (m *Manager) ExtendEntry(e *Entry, n int) error {
	if e == nil || e.m != m || e.idx < 0 {
		return fmt.Errorf("kvcache: stale or missing entry handle")
	}
	if n < 0 {
		return fmt.Errorf("kvcache: negative extension %d", n)
	}
	tokens := e.tokens()
	delta := e.groups * (m.perGroup(tokens+n) - m.perGroup(tokens))
	if delta > m.freeBlocks {
		return fmt.Errorf("%w: extension needs %d blocks, %d free", ErrNoSpace, delta, m.freeBlocks)
	}
	m.freeBlocks -= delta
	m.addGroups(e.base, -e.groups)
	e.base += n
	m.addGroups(e.base, e.groups)
	return nil
}

// StepDemand is the number of blocks Advance would allocate: one per
// group of every entry whose context fills its last blocks exactly.
func (m *Manager) StepDemand() int {
	// Context base+clock ≡ 0 (mod BlockTokens) ⇔ base ≡ −clock.
	return m.phaseGroups[m.cross]
}

// Advance grows every live entry by one token — one decode step of the
// whole device — in O(1): the crossing phase's groups take a block each,
// exactly what ExtendEntry(e, 1) on each entry would do. When the step's
// demand exceeds the free blocks it returns ErrNoSpace and changes
// nothing; per-entry extension is then the only way to decide who gets
// the blocks.
func (m *Manager) Advance() error {
	need := m.StepDemand()
	if need > m.freeBlocks {
		return fmt.Errorf("%w: step needs %d blocks, %d free", ErrNoSpace, need, m.freeBlocks)
	}
	m.freeBlocks -= need
	m.clock++
	if m.cross--; m.cross < 0 {
		m.cross += m.cfg.BlockTokens
	}
	return nil
}

// Resolve returns e when it is still request id's live entry on this
// device, and otherwise looks id up afresh (nil when id holds nothing
// here). The check is a few compares, so callers resolve a cached handle
// before every use and pay the lookup only after it went stale.
func (m *Manager) Resolve(e *Entry, id RequestID) *Entry {
	if e != nil && e.m == m && e.idx >= 0 && e.id == id {
		return e
	}
	return m.reqs[id]
}

// GrowGroups adds extra head groups at the request's current context
// length (used when re-dispatching moves heads onto this device).
func (m *Manager) GrowGroups(id RequestID, extra int) error {
	e, ok := m.reqs[id]
	if !ok {
		return fmt.Errorf("kvcache: request %d not on device", id)
	}
	if extra <= 0 {
		return fmt.Errorf("kvcache: GrowGroups needs positive extra, got %d", extra)
	}
	delta := extra * m.perGroup(e.tokens())
	if delta > m.freeBlocks {
		return fmt.Errorf("%w: growth needs %d blocks, %d free", ErrNoSpace, delta, m.freeBlocks)
	}
	m.freeBlocks -= delta
	e.groups += extra
	m.addGroups(e.base, extra)
	return nil
}

// ShrinkGroups removes head groups from the request, freeing their blocks.
// Removing all groups frees the request entirely.
func (m *Manager) ShrinkGroups(id RequestID, removed int) error {
	e, ok := m.reqs[id]
	if !ok {
		return fmt.Errorf("kvcache: request %d not on device", id)
	}
	if removed <= 0 || removed > e.groups {
		return fmt.Errorf("kvcache: cannot remove %d of %d groups", removed, e.groups)
	}
	if removed == e.groups {
		m.Free(id)
		return nil
	}
	m.freeBlocks += removed * m.perGroup(e.tokens())
	e.groups -= removed
	m.addGroups(e.base, -removed)
	return nil
}

// Free releases everything request id holds on this device. Freeing an
// absent request is a no-op.
func (m *Manager) Free(id RequestID) {
	e, ok := m.reqs[id]
	if !ok {
		return
	}
	m.freeBlocks += e.blocks()
	m.addGroups(e.base, -e.groups)
	last := m.ents[len(m.ents)-1]
	last.idx = e.idx
	m.ents[e.idx] = last
	m.ents[len(m.ents)-1] = nil
	m.ents = m.ents[:len(m.ents)-1]
	e.idx = -1
	delete(m.reqs, id)
}

// Has reports whether the request holds blocks here.
func (m *Manager) Has(id RequestID) bool {
	_, ok := m.reqs[id]
	return ok
}

// Groups returns the number of head groups request id holds here (0 if
// absent).
func (m *Manager) Groups(id RequestID) int {
	if e, ok := m.reqs[id]; ok {
		return e.groups
	}
	return 0
}

// Tokens returns the context length request id holds here (0 if absent).
func (m *Manager) Tokens(id RequestID) int {
	if e, ok := m.reqs[id]; ok {
		return e.tokens()
	}
	return 0
}

// BytesOf is the exact byte footprint of request id on this device.
func (m *Manager) BytesOf(id RequestID) int64 {
	if e, ok := m.reqs[id]; ok {
		return int64(e.blocks()) * m.cfg.BlockBytes()
	}
	return 0
}

// AppendRequests appends the IDs of the requests with blocks on this
// device to dst, in no particular order, and returns the extended slice;
// callers order the IDs by a key of their own.
func (m *Manager) AppendRequests(dst []RequestID) []RequestID {
	for _, e := range m.ents {
		dst = append(dst, e.id)
	}
	return dst
}

// VictimLIFO implements the paper's modified LIFO policy (§5.3.2): among
// requests that actually hold memory on THIS device, pick the one that
// arrived last. Returns false when the device is empty.
func (m *Manager) VictimLIFO() (RequestID, bool) {
	return m.newest(0, false)
}

// VictimLIFOExcept is VictimLIFO skipping request protect: the newest
// allocation on this device that is not protect's. Returns false when no
// other request holds memory here.
func (m *Manager) VictimLIFOExcept(protect RequestID) (RequestID, bool) {
	return m.newest(protect, true)
}

// newest finds the latest allocation in one walk, skipping protect when
// except is set. Arrival sequences are unique, so the walk order cannot
// matter.
func (m *Manager) newest(protect RequestID, except bool) (RequestID, bool) {
	var best *Entry
	for _, e := range m.ents {
		if except && e.id == protect {
			continue
		}
		if best == nil || e.arrival > best.arrival {
			best = e
		}
	}
	if best == nil {
		return 0, false
	}
	return best.id, true
}

// CheckInvariants verifies internal accounting; tests call it after every
// mutation sequence.
func (m *Manager) CheckInvariants() error {
	if len(m.reqs) != len(m.ents) {
		return fmt.Errorf("kvcache: %d entries but %d indexed", len(m.ents), len(m.reqs))
	}
	used := 0
	phases := make([]int, m.cfg.BlockTokens)
	for k, e := range m.ents {
		id := e.id
		if e.idx != k || e.m != m || m.reqs[id] != e {
			return fmt.Errorf("kvcache: entry of request %d at %d is misindexed (idx %d)", id, k, e.idx)
		}
		if e.groups <= 0 {
			return fmt.Errorf("kvcache: request %d with %d groups", id, e.groups)
		}
		if e.tokens() < 0 {
			return fmt.Errorf("kvcache: request %d with %d tokens", id, e.tokens())
		}
		used += e.blocks()
		phases[m.phase(e.base)] += e.groups
	}
	if used+m.freeBlocks != m.totalBlocks {
		return fmt.Errorf("kvcache: leak: used %d + free %d != total %d", used, m.freeBlocks, m.totalBlocks)
	}
	if m.cross != m.phase(-m.clock) {
		return fmt.Errorf("kvcache: crossing phase %d at clock %d", m.cross, m.clock)
	}
	for p, n := range phases {
		if m.phaseGroups[p] != n {
			return fmt.Errorf("kvcache: phase %d holds %d groups, counted %d", p, n, m.phaseGroups[p])
		}
	}
	return nil
}
