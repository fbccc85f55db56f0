package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hetis/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current engines")

// ForGolden returns the spec the golden-trace harness runs: the scenario
// at its GoldenDuration (when set), everything else untouched.
func (s Spec) ForGolden() Spec {
	if s.GoldenDuration > 0 {
		s.Duration = s.GoldenDuration
	}
	return s
}

// TestGolden pins every registered scenario's full CSV output — per-engine
// and per-tenant goodput, attainment, and latency columns — against a
// golden file. Any change anywhere in the serving stack (engine batching,
// dispatch LP, kvcache eviction, perf model, workload sampling) that
// shifts a scheduling decision shows up here as a reviewable diff instead
// of silently drifting downstream results. Regenerate with:
//
//	go test ./internal/scenario -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// Heavy scenarios pin a shortened replay (Spec.GoldenDuration):
			// the golden referee needs every scheduling path exercised
			// byte-stably, not a million-request run per `go test`.
			spec = spec.ForGolden()
			tab, err := Run(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".golden", []byte(tab.CSV()))
		})
	}
}

// streamGoldens are the scenarios whose streaming output is pinned as
// well: per-tenant rows (multitenant), per-tier rows with the chaos
// columns (preempt), the sharded merge of tenant muxes and windowed
// series (fleet), and the tenant row of a trace with one named tenant,
// unsharded (megascale) and merged across shards (gigascale).
var streamGoldens = []string{"fleet", "gigascale", "megascale", "multitenant", "preempt"}

// streamGoldenWindow is the windowed-series width of the stream goldens.
const streamGoldenWindow = 30

// TestGoldenStream pins the streaming measurement path the way TestGolden
// pins the exact one: each engine's rows through the streaming sinks,
// then each engine's windowed series, at the golden trace size.
func TestGoldenStream(t *testing.T) {
	for _, name := range streamGoldens {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = spec.ForGolden()
			tab := &metrics.Table{Header: HeaderFor(spec.Chaotic())}
			var windows bytes.Buffer
			for _, eng := range spec.WithDefaults().Engines {
				rows, wins, err := RunEngineSink(spec, eng, Options{Stream: true, Window: streamGoldenWindow})
				if err != nil {
					t.Fatal(err)
				}
				tab.Rows = append(tab.Rows, rows.Rows...)
				fmt.Fprintf(&windows, "# windows %s\n%s", eng, wins.CSV())
			}
			checkGolden(t, name+".stream.golden", append([]byte(tab.CSV()), windows.Bytes()...))
		})
	}
}

// checkGolden compares got with testdata/file, or rewrites the file under
// -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden trace (rerun with -update if the change is intended):\n%s",
			file, diffLines(want, got))
	}
}

// diffLines renders a minimal line diff of two CSV bodies.
func diffLines(want, got []byte) string {
	w := bytes.Split(bytes.TrimRight(want, "\n"), []byte("\n"))
	g := bytes.Split(bytes.TrimRight(got, "\n"), []byte("\n"))
	var out bytes.Buffer
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if bytes.Equal(wl, gl) {
			continue
		}
		fmt.Fprintf(&out, "line %d:\n  want: %s\n  got:  %s\n", i+1, wl, gl)
	}
	return out.String()
}

// TestGoldenFilesCoverRegistry fails when a golden exists for no
// registered scenario (stale file) so the testdata directory and the
// catalog cannot drift apart. The other direction — a scenario with no
// golden — already fails in TestGolden.
func TestGoldenFilesCoverRegistry(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, name := range Names() {
		known[name+".golden"] = true
	}
	for _, name := range streamGoldens {
		known[name+".stream.golden"] = true
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("testdata/%s matches no registered scenario; delete it or register the scenario", e.Name())
		}
	}
}
