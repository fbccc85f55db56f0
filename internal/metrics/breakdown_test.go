package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// sameGroup is the identity grouping: one Breakdown group per tenant.
func sameGroup(tenant string) string { return tenant }

// oracleBreakdown is the copy-based path Breakdown replaced: it copies
// each group's records into a recorder of its own and summarizes every
// series with sort.Float64s.
func oracleBreakdown(c *Recorder, slo SLOTarget, horizon float64, group func(string) string) (TenantStats, []TenantStats) {
	byGroup := map[string][]RequestRecord{}
	for _, r := range c.Records() {
		byGroup[group(r.Tenant)] = append(byGroup[group(r.Tenant)], r)
	}
	names := make([]string, 0, len(byGroup))
	for name := range byGroup {
		names = append(names, name)
	}
	sort.Strings(names)
	groups := make([]TenantStats, 0, len(names))
	for _, name := range names {
		groups = append(groups, oracleStats(name, byGroup[name], slo, horizon))
	}
	return oracleStats("", c.Records(), slo, horizon), groups
}

func oracleStats(name string, recs []RequestRecord, slo SLOTarget, horizon float64) TenantStats {
	sub := NewExactRecorder(slo)
	sub.AddBatch(recs)
	snap := sub.Snapshot()
	return TenantStats{
		Tenant:     name,
		Count:      sub.Completed(),
		Dropped:    sub.DroppedCount(),
		Attainment: snap.Attainment(),
		Goodput:    snap.Goodput(horizon),
		TTFT:       oracleSummary(recs, RequestRecord.TTFT),
		TPOT:       oracleSummary(recs, RequestRecord.TPOT),
		NormLat:    oracleSummary(recs, RequestRecord.NormLatency),
	}
}

func oracleSummary(recs []RequestRecord, f func(RequestRecord) float64) Summary {
	var vals []float64
	for _, r := range recs {
		if !r.Dropped {
			vals = append(vals, f(r))
		}
	}
	sort.Float64s(vals)
	return summarizeAscending(vals)
}

// TestBreakdownMatchesCopyOracle checks Breakdown bit for bit against the
// copy-based oracle on random multi-chunk recorders: 0-5 tenants (the
// empty single-tenant name among them), a tenant whose every request was
// dropped, coarse latencies that repeat values, and both the identity
// grouping and a tier grouping with a catch-all tier and a tier that
// matches no tenant.
func TestBreakdownMatchesCopyOracle(t *testing.T) {
	pool := []string{"", "chat", "code", "batch", "doc", "shed"}
	tiers := map[string]string{"chat": "gold", "code": "gold", "nobody": "empty"}
	tierOf := func(tenant string) string {
		if tier, ok := tiers[tenant]; ok {
			return tier
		}
		return "rest" // catch-all
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		tenants := pool[:rng.Intn(len(pool)+1)]
		slo := SLOTarget{TTFT: 0.5 * rng.Float64(), TPOT: 0.1 * rng.Float64()}
		horizon := float64(rng.Intn(3)) * 60 // 0 exercises the zero-goodput rule
		n := 0
		if len(tenants) > 0 {
			n = rng.Intn(3 * recordChunk)
		}
		c := NewExactRecorder(SLOTarget{})
		for i := 0; i < n; i++ {
			tenant := tenants[rng.Intn(len(tenants))]
			// Coarse grids make ties; shed is the dropped-only tenant.
			ttft := float64(rng.Intn(50)) / 64
			r := RequestRecord{
				ID:         int64(i),
				Tenant:     tenant,
				ArrivalAt:  float64(i),
				FirstToken: float64(i) + ttft,
				FinishedAt: float64(i) + ttft + float64(rng.Intn(200))/32,
				OutputLen:  rng.Intn(8),
				Dropped:    tenant == "shed" || rng.Intn(9) == 0,
			}
			c.Add(r)
		}
		for name, group := range map[string]func(string) string{"tenant": sameGroup, "tier": tierOf} {
			gotAll, got := c.Breakdown(slo, horizon, group)
			wantAll, want := oracleBreakdown(c, slo, horizon, group)
			if !reflect.DeepEqual(gotAll, wantAll) {
				t.Fatalf("round %d %s: run-wide row\n got %+v\nwant %+v", round, name, gotAll, wantAll)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: groups\n got %+v\nwant %+v", round, name, got, want)
			}
		}
	}
}

// sortSpecials are the float values whose order sort.Float64s defines
// most delicately.
var sortSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074), // largest subnormals
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, 2,
}

// fuzzFloats decodes fuzz input into 0-2000 floats: byte 0 picks the
// mode, bytes 1-2 the length, and the rest is a source cycled out to that
// length, so short inputs reach every size. An odd mode byte takes one
// source byte per value from sortSpecials and small integers, so special
// values and duplicates dominate; an even one takes 8 source bytes per
// value as raw bits, with the cycle number flipping low mantissa bits.
func fuzzFloats(data []byte) []float64 {
	if len(data) < 3 {
		return nil
	}
	palette := data[0]&1 == 1
	n := int(binary.LittleEndian.Uint16(data[1:])) % 2001
	src := data[3:]
	if !palette {
		src = src[:len(src)/8*8]
	}
	if len(src) == 0 {
		return nil
	}
	vals := make([]float64, n)
	for i := range vals {
		if palette {
			b := src[i%len(src)]
			if int(b) < len(sortSpecials) {
				vals[i] = sortSpecials[b]
			} else {
				vals[i] = float64(int(b)-128) / 4
			}
			continue
		}
		j := 8 * i % len(src)
		cycle := uint64(8 * i / len(src))
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[j:]) ^ cycle)
	}
	return vals
}

func checkSortFloats(t *testing.T, vals []float64) {
	t.Helper()
	want := append([]float64(nil), vals...)
	sort.Float64s(want)
	got := append([]float64(nil), vals...)
	sortFloats(got, make([]float64, len(got)))
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("n=%d: index %d = %v, sort.Float64s has %v", len(vals), i, got[i], want[i])
		}
	}
}

// FuzzSortFloats checks the radix kernel against sort.Float64s: equal
// element-wise under ==, with NaNs in the same positions.
func FuzzSortFloats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0xd0, 0x07, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 200, 4, 128})
	f.Add([]byte{1, 40, 0, 4, 0, 1, 4, 2, 3, 5, 6, 0, 1, 9, 10, 200, 4})
	raw := []byte{0, 0xd0, 0x07}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 32; i++ {
		v := math.Exp(rng.NormFloat64()) * 0.1 // latency-shaped
		if i%7 == 0 {
			v = -v
		}
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortFloats(t, fuzzFloats(data))
	})
}

// TestSortFloatsLarge covers sizes past the fuzz cap, where every key
// digit varies, and a constant series, where every digit is skipped.
func TestSortFloatsLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals := make([]float64, 100_000)
	for i := range vals {
		vals[i] = math.Float64frombits(rng.Uint64())
	}
	checkSortFloats(t, vals)
	for i := range vals {
		vals[i] = 0.25
	}
	checkSortFloats(t, vals)
}

// TestBreakdownCopiesNoRecord pins the report's memory: Breakdown's heap
// is the 4n-float value and scratch buffer plus per-group bookkeeping, so
// neither its allocation count nor its bytes beyond that buffer grow with
// the records.
func TestBreakdownCopiesNoRecord(t *testing.T) {
	slo := SLOTarget{TTFT: 1.5, TPOT: 0.1}
	var prevAllocs float64
	for _, n := range []int{2_000, 20_000} {
		c := NewExactRecorder(SLOTarget{})
		c.AddBatch(slabRecords(n))
		allocs := testing.AllocsPerRun(5, func() { c.Breakdown(slo, 60, sameGroup) })
		if prevAllocs != 0 && allocs != prevAllocs {
			t.Errorf("n=%d: %v allocations, %v at a tenth of the records", n, allocs, prevAllocs)
		}
		prevAllocs = allocs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Breakdown(slo, 60, sameGroup)
		runtime.ReadMemStats(&after)
		// The slack covers the large buffer's rounding up to whole pages
		// and the per-group slices; one copy of the records is 72 B each.
		values := uint64(4 * 8 * c.Completed())
		if got := after.TotalAlloc - before.TotalAlloc; got > values+16<<10 {
			t.Errorf("n=%d: Breakdown allocated %d bytes, want the %d-byte value buffer plus at most 16 KiB", n, got, values)
		}
	}
}
