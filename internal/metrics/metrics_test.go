package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestRecordDerived(t *testing.T) {
	r := RequestRecord{ArrivalAt: 1, FirstToken: 3, FinishedAt: 12, OutputLen: 10}
	if got := r.TTFT(); got != 2 {
		t.Errorf("TTFT=%g want 2", got)
	}
	if got := r.TPOT(); math.Abs(got-1) > 1e-12 {
		t.Errorf("TPOT=%g want 1", got)
	}
	if got := r.NormLatency(); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("NormLatency=%g want 1.1", got)
	}
}

func TestRequestRecordDegenerate(t *testing.T) {
	r := RequestRecord{ArrivalAt: 0, FirstToken: 1, FinishedAt: 1, OutputLen: 1}
	if got := r.TPOT(); got != 0 {
		t.Errorf("single-token TPOT=%g want 0", got)
	}
	r.OutputLen = 0
	if got := r.NormLatency(); got != 0 {
		t.Errorf("zero-output NormLatency=%g want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(vals, 0); got != 1 {
		t.Errorf("P0=%g want 1", got)
	}
	if got := Percentile(vals, 1); got != 10 {
		t.Errorf("P100=%g want 10", got)
	}
	if got := Percentile(vals, 0.5); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("P50=%g want 5.5", got)
	}
	if got := Percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single-element P95=%g want 7", got)
	}
}

// TestPercentileEdgeCases pins the documented conventions at the input
// boundaries; the empty case in particular must yield 0, not NaN, so CSV
// cells downstream never render as "NaN".
func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty-nil", nil, 0.5, 0},
		{"empty-slice", []float64{}, 0.95, 0},
		{"empty-p0", nil, 0, 0},
		{"empty-p1", nil, 1, 0},
		{"single", []float64{3.5}, 0.5, 3.5},
		{"single-p0", []float64{3.5}, 0, 3.5},
		{"single-p1", []float64{3.5}, 1, 3.5},
		{"p0-is-min", []float64{1, 2, 3}, 0, 1},
		{"p1-is-max", []float64{1, 2, 3}, 1, 3},
		{"p-below-0-clamps", []float64{1, 2, 3}, -0.5, 1},
		{"p-above-1-clamps", []float64{1, 2, 3}, 1.5, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Percentile(tc.sorted, tc.p); got != tc.want {
				t.Errorf("Percentile(%v, %g)=%g want %g", tc.sorted, tc.p, got, tc.want)
			}
		})
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := math.Mod(math.Abs(p1), 1)
		b := math.Mod(math.Abs(p2), 1)
		if a > b {
			a, b = b, a
		}
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		return Percentile(sorted, a) <= Percentile(sorted, b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeValues(t *testing.T) {
	s := SummarizeValues([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary wrong: %+v", s)
	}
	empty := SummarizeValues(nil)
	if empty.Count != 0 {
		t.Fatalf("empty summary: %+v", empty)
	}
}

func TestRecorderSummaries(t *testing.T) {
	rec := NewExactRecorder(SLOTarget{})
	for i := 0; i < 10; i++ {
		rec.Add(RequestRecord{
			ID:         int64(i),
			ArrivalAt:  0,
			FirstToken: float64(i + 1),
			FinishedAt: float64(i+1) + 10,
			OutputLen:  11,
		})
	}
	if rec.Count() != 10 {
		t.Fatalf("Count=%d", rec.Count())
	}
	snap := rec.Snapshot()
	if snap.TTFT.Mean != 5.5 {
		t.Errorf("mean TTFT=%g want 5.5", snap.TTFT.Mean)
	}
	if math.Abs(snap.TPOT.Mean-1) > 1e-12 {
		t.Errorf("mean TPOT=%g want 1", snap.TPOT.Mean)
	}
	if nl := snap.NormLat; nl.Count != 10 {
		t.Errorf("norm latency count=%d", nl.Count)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(0, 1)
	s.Append(10, 5)
	s.Append(20, 3)
	if s.Len() != 3 {
		t.Fatalf("Len=%d", s.Len())
	}
	if got := s.MaxValue(); got != 5 {
		t.Errorf("MaxValue=%g want 5", got)
	}
	if got := s.At(-1); got != 0 {
		t.Errorf("At(-1)=%g want 0", got)
	}
	if got := s.At(10); got != 5 {
		t.Errorf("At(10)=%g want 5", got)
	}
	if got := s.At(15); got != 5 {
		t.Errorf("At(15)=%g want 5", got)
	}
	if got := s.At(100); got != 3 {
		t.Errorf("At(100)=%g want 3", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Header: []string{"device", "time"}}
	tab.AddRow("A100", 0.0097)
	tab.AddRow("P100", 0.077)
	tab.AddRow("count", 42)
	out := tab.String()
	for _, want := range []string{"device", "A100", "0.0097", "P100", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + separator + 3 rows
		t.Errorf("table has %d lines want 5:\n%s", len(lines), out)
	}
}

// TestTableCSVFullPrecision asserts CSV cells round-trip float64 exactly:
// a value that %.4g would flatten must come back bit-identical from the
// CSV rendering, so golden diffs can't hide small metric drift.
func TestTableCSVFullPrecision(t *testing.T) {
	v := 0.2774999999999999 // %.4g renders 0.2775; round-trip must not
	tab := Table{Header: []string{"v"}}
	tab.AddRow(v)
	out := tab.CSV()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines want 2:\n%s", len(lines), out)
	}
	back, err := strconv.ParseFloat(lines[1], 64)
	if err != nil {
		t.Fatalf("CSV cell %q does not parse: %v", lines[1], err)
	}
	if back != v {
		t.Errorf("CSV cell %q round-trips to %v, want %v", lines[1], back, v)
	}
	// The aligned rendering stays human-readable at 4 significant digits.
	if s := tab.String(); !strings.Contains(s, "0.2775") || strings.Contains(s, lines[1]) {
		t.Errorf("String() should round to 4 significant digits:\n%s", s)
	}
}

// TestTableStringLeavesNonFloatCellsAlone guards prettyCell against
// mangling integer counts and names that merely look numeric-ish.
func TestTableStringLeavesNonFloatCellsAlone(t *testing.T) {
	tab := Table{Header: []string{"name", "count", "bytes"}}
	tab.AddRow("hetis", 200, int64(2_000_000_000))
	out := tab.String()
	for _, want := range []string{"hetis", "200", "2000000000"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() mangled %q:\n%s", want, out)
		}
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tab := Table{Header: []string{"v"}}
	tab.AddRow(3.0)
	tab.AddRow(float32(2.5))
	out := tab.String()
	if !strings.Contains(out, "3\n") && !strings.Contains(out, "3 ") {
		t.Errorf("integral float should render without decimals:\n%s", out)
	}
	if !strings.Contains(out, "2.5") {
		t.Errorf("fractional float should keep decimals:\n%s", out)
	}
}
