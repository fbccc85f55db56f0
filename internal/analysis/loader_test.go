package analysis_test

import (
	"strings"
	"testing"

	"hetis/internal/analysis"
)

func TestLoaderResolvesModuleAndStdlib(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModulePath != "hetis" {
		t.Fatalf("module path = %q, want hetis", loader.ModulePath)
	}
	pkgs, err := loader.Load("hetis/internal/trace")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "hetis/internal/trace" {
		t.Fatalf("Load returned %+v, want exactly hetis/internal/trace", pkgs)
	}
	pkg := pkgs[0]
	if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
		t.Fatal("package loaded without types, info, or files")
	}
	if pkg.Types.Scope().Lookup("Log") == nil {
		t.Fatal("type-checked hetis/internal/trace has no Log in scope")
	}
}

func TestLoaderRecursivePattern(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("hetis/internal/...")
	if err != nil {
		t.Fatal(err)
	}
	var sawSim, sawFixture bool
	for _, p := range pkgs {
		if p.Path == "hetis/internal/sim" {
			sawSim = true
		}
		if strings.Contains(p.Path, "testdata") {
			sawFixture = true
		}
	}
	if !sawSim {
		t.Error("hetis/internal/... did not include hetis/internal/sim")
	}
	if sawFixture {
		t.Error("hetis/internal/... descended into a testdata directory")
	}
}

func TestDeterministicPackagePredicate(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"hetis/internal/sim", true},
		{"hetis/internal/engine", true},
		{"maprange/internal/engine", true},
		{"internal/metrics", true},
		{"hetis/internal/sweep", true},
		{"hetis/internal/sweep/pool", false},
		{"hetis/internal/trace", false},
		{"hetis/cmd/hetislint", false},
		{"hetis/internal/engineering", false},
	}
	for _, c := range cases {
		if got := analysis.DeterministicPackage(c.path); got != c.want {
			t.Errorf("DeterministicPackage(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
