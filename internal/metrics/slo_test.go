package metrics

import (
	"math"
	"testing"
)

// rec builds a record with the given TTFT and TPOT over 11 output tokens.
func rec(tenant string, ttft, tpot float64) RequestRecord {
	return RequestRecord{
		ArrivalAt:  0,
		FirstToken: ttft,
		FinishedAt: ttft + 10*tpot,
		OutputLen:  11,
		Tenant:     tenant,
	}
}

func TestSLOAttained(t *testing.T) {
	slo := SLOTarget{TTFT: 1.0, TPOT: 0.1}
	cases := []struct {
		r    RequestRecord
		want bool
	}{
		{rec("", 0.5, 0.05), true},
		{rec("", 1.0, 0.1), true},   // exactly at target attains
		{rec("", 1.5, 0.05), false}, // TTFT miss
		{rec("", 0.5, 0.2), false},  // TPOT miss
		{rec("", 2.0, 0.2), false},  // both miss
	}
	for i, c := range cases {
		if got := slo.Attained(c.r); got != c.want {
			t.Errorf("case %d: Attained = %v, want %v", i, got, c.want)
		}
	}
	if !(SLOTarget{}).Attained(rec("", 99, 99)) {
		t.Error("zero SLO must attain everything")
	}
	if !(SLOTarget{}).IsZero() || (SLOTarget{TTFT: 1}).IsZero() {
		t.Error("IsZero wrong")
	}
	// One-sided objectives constrain only their dimension.
	if (SLOTarget{TTFT: 1}).Attained(rec("", 2, 0.01)) {
		t.Error("TTFT-only SLO ignored TTFT")
	}
	if !(SLOTarget{TTFT: 1}).Attained(rec("", 0.5, 99)) {
		t.Error("TTFT-only SLO must ignore TPOT")
	}
}

func TestAttainmentAndGoodput(t *testing.T) {
	slo := SLOTarget{TTFT: 1.0, TPOT: 0.1}
	c := NewExactRecorder(slo)
	if snap := c.Snapshot(); snap.Attainment() != 0 || snap.Goodput(10) != 0 {
		t.Error("empty recorder should attain nothing")
	}
	c.Add(rec("", 0.5, 0.05))
	c.Add(rec("", 0.5, 0.05))
	c.Add(rec("", 2.0, 0.05))
	c.Add(rec("", 0.5, 0.5))
	if got := c.attained(slo); got != 2 {
		t.Errorf("attained = %d, want 2", got)
	}
	snap := c.Snapshot()
	if got := snap.Attainment(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Attainment = %g, want 0.5", got)
	}
	if got := snap.Goodput(10); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Goodput = %g, want 0.2", got)
	}
	if snap.Goodput(0) != 0 {
		t.Error("zero horizon must give zero goodput")
	}
}

func TestPerTenant(t *testing.T) {
	slo := SLOTarget{TTFT: 1.0}
	c := NewExactRecorder(slo)
	c.Add(rec("b", 0.5, 0.05))
	c.Add(rec("a", 2.0, 0.05))
	c.Add(rec("a", 0.5, 0.05))
	c.Add(rec("b", 0.5, 0.05))
	c.Add(rec("b", 3.0, 0.05))

	all, stats := c.Breakdown(slo, 10, sameGroup)
	if len(stats) != 2 {
		t.Fatalf("Breakdown returned %d groups, want 2", len(stats))
	}
	if snap := c.Snapshot(); all.Count != c.Completed() || all.Attainment != snap.Attainment() || all.Goodput != snap.Goodput(10) {
		t.Errorf("run-wide stats wrong: %+v", all)
	}
	a, b := stats[0], stats[1]
	if a.Tenant != "a" || a.Count != 2 || math.Abs(a.Attainment-0.5) > 1e-12 || math.Abs(a.Goodput-0.1) > 1e-12 {
		t.Errorf("tenant a stats wrong: %+v", a)
	}
	if b.Tenant != "b" || b.Count != 3 || math.Abs(b.Attainment-2.0/3) > 1e-12 || math.Abs(b.Goodput-0.2) > 1e-12 {
		t.Errorf("tenant b stats wrong: %+v", b)
	}
	if b.TTFT.Max != 3.0 {
		t.Errorf("tenant b TTFT max = %g, want 3", b.TTFT.Max)
	}
	// The tenant partition must cover the recorder exactly.
	if a.Count+b.Count != c.Count() {
		t.Errorf("per-tenant counts %d+%d != total %d", a.Count, b.Count, c.Count())
	}
}
