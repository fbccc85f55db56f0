// Package analysis is hetis' determinism-and-invariant lint suite: a set
// of repo-specific static checks that mechanically enforce the conventions
// every golden trace rests on — no unordered map iteration in simulation
// state, no wall-clock or global-rand entropy in deterministic packages,
// single-shot discipline for sim.Handle, and the metrics-sink / trace-log
// lifecycle contracts.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite could migrate to the real framework and a
// `go vet -vettool` driver if x/tools ever becomes a dependency; the build
// image pins a dependency-free toolchain, so the loader and driver here
// run on the standard library alone (go/parser + go/types with the source
// importer).
//
// Analyzers identify the repo's types structurally — by (package-path
// suffix, type name), e.g. a named type Handle declared in a package whose
// import path ends in "internal/sim" — so the analysistest fixtures under
// testdata/src can exercise every rule against small self-contained
// lookalike packages without type-checking the whole module.
//
// Findings are suppressed site-by-site with a justification comment on the
// flagged line or the line above:
//
//	//hetis:<directive> <why the order/entropy/lifetime cannot escape>
//
// The justification is mandatory: a directive with an empty reason does
// not suppress, it reports. See doc/ANALYSIS.md for the catalog and the
// suppression contract.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring the x/tools shape.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is the one-paragraph description `hetislint -list` prints.
	Doc string
	// Directive is the suppression keyword: a comment
	// `//hetis:<Directive> <reason>` on (or immediately above) a flagged
	// line suppresses the finding when reason is non-empty.
	Directive string
	// Run reports the analyzer's findings on one package via pass.Reportf.
	Run func(pass *Pass)
}

// Diagnostic is one reported finding, carrying its resolved position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet

	diags *[]Diagnostic
	supp  *suppressionIndex
}

// Reportf records a finding at pos unless a justified suppression
// directive covers that line. A directive present but missing its
// justification does not suppress: the finding is reported with a note,
// so every surviving annotation in the tree carries a written reason.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if s := p.supp.lookup(position.Filename, position.Line, p.Analyzer.Directive); s != nil {
		if s.reason != "" {
			s.used = true
			return
		}
		format += " (a //hetis:" + p.Analyzer.Directive + " directive is present but missing its justification)"
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf resolves an expression's type (nil when unknown).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// RunAnalyzer applies one analyzer to the packages and returns its
// findings sorted by position. Suppression directives are honored but not
// audited — RunSuite adds the directive hygiene checks.
func RunAnalyzer(a *Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pass := &Pass{
			Analyzer: a,
			Pkg:      pkg,
			Fset:     pkg.Fset,
			diags:    &diags,
			supp:     pkg.suppressions(),
		}
		a.Run(pass)
	}
	sortDiagnostics(diags)
	return diags
}

// RunSuite applies every analyzer to every package and audits the
// suppression directives themselves: unknown //hetis: keywords and
// directives that no longer suppress anything are findings too, so stale
// annotations cannot linger after the code they excused is gone.
func RunSuite(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Directive] = true
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Fset:     pkg.Fset,
				diags:    &diags,
				supp:     pkg.suppressions(),
			}
			a.Run(pass)
		}
	}
	for _, pkg := range pkgs {
		for _, s := range pkg.suppressions().all {
			switch {
			case !known[s.directive]:
				diags = append(diags, Diagnostic{
					Pos:      s.pos,
					Analyzer: "directives",
					Message:  fmt.Sprintf("unknown directive //hetis:%s (known: %s)", s.directive, directiveNames(analyzers)),
				})
			case !s.used && s.reason != "":
				diags = append(diags, Diagnostic{
					Pos:      s.pos,
					Analyzer: "directives",
					Message:  fmt.Sprintf("unused suppression //hetis:%s — the finding it excused is gone; delete it", s.directive),
				})
			}
		}
	}
	sortDiagnostics(diags)
	return diags
}

func directiveNames(analyzers []*Analyzer) string {
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Directive)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// deterministicPkgs are the path suffixes of the packages whose control
// flow must be bit-reproducible: everything the golden traces and the
// cross-jobs equivalence tests referee.
var deterministicPkgs = []string{
	"internal/sim",
	"internal/engine",
	"internal/dispatch",
	"internal/scenario",
	"internal/metrics",
	"internal/fleet",
	"internal/workload",
	"internal/sweep",
}

// DeterministicPackage reports whether an import path names one of the
// repo's determinism-critical packages. Matching is by path suffix so the
// analysistest fixtures (whose paths end in the same suffixes) exercise
// the same predicate the real module does.
func DeterministicPackage(path string) bool {
	for _, d := range deterministicPkgs {
		if pathIs(path, d) {
			return true
		}
	}
	return false
}

// pathIs reports whether path equals suffix or ends in "/"+suffix.
func pathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isNamedFrom reports whether t — after stripping one pointer level — is
// the named type `name` declared in a package whose path ends in
// pkgSuffix.
func isNamedFrom(t types.Type, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return pathIs(obj.Pkg().Path(), pkgSuffix)
}

// hasMethod reports whether t's method set (including the pointer method
// set) contains a method with the given name.
func hasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}

// inspectWithStack walks every node of the file, maintaining the ancestor
// stack (outermost first, not including n itself).
func inspectWithStack(file *ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal in
// the ancestor stack (nil when at file scope).
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcBody returns the body of a FuncDecl or FuncLit.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}
