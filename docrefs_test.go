package hetis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// mdRef matches a name ending in .md: a bare file name or a path.
var mdRef = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestMarkdownReferencesExist fails when a Go file or a doc names a
// Markdown file that is not in the repository, when a doc names an
// exported Go identifier that is not (see checkIdentifiers), or when a
// doc links to a heading that its target does not have (see
// checkAnchors). The docs are
// the READMEs and doc/; the root's other Markdown files record history or
// quote other repositories, so they may name files that are gone or never
// lived here. A name resolves against the naming file's directory, the
// repository root, or doc/.
func TestMarkdownReferencesExist(t *testing.T) {
	decls := map[string]map[string]bool{} // package name -> declared names
	docs := map[string][]string{}         // doc path -> lines
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		isDoc := filepath.Base(path) == "README.md" || filepath.Dir(path) == "doc"
		if !isDoc && !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			for _, ref := range mdRef.FindAllString(line, -1) {
				if strings.Contains(ref, "//") {
					continue // part of a URL
				}
				if !mdExists(filepath.Join(filepath.Dir(path), ref), ref, filepath.Join("doc", ref)) {
					t.Errorf("%s:%d names %s, which is not in the repository", path, i+1, ref)
				}
			}
		}
		if isDoc {
			docs[path] = lines
			return nil
		}
		return declare(decls, path, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range slices.Sorted(maps.Keys(docs)) {
		checkIdentifiers(t, decls, path, docs[path])
		checkAnchors(t, path, docs[path])
	}
}

// mdExists reports whether any candidate path is a file.
func mdExists(candidates ...string) bool {
	for _, c := range candidates {
		if st, err := os.Stat(c); err == nil && !st.IsDir() {
			return true
		}
	}
	return false
}

// codeSpan matches an inline code span; qualRef an exported qualified
// identifier pkg.Name in one, where pkg does not continue a path or
// selector. Lowercase names are left out: in the docs they are file names
// (`fleet.go`) and benchmark metric keys (`engine.run_s`), not Go.
var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	qualRef  = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Z]\w*)`)
)

// declare records the top-level names a Go file declares (functions,
// types, variables and constants; not methods) under its package name.
func declare(decls map[string]map[string]bool, path string, src []byte) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	names := decls[f.Name.Name]
	if names == nil {
		names = map[string]bool{}
		decls[f.Name.Name] = names
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				names[decl.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					names[spec.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return nil
}

// checkIdentifiers fails on every exported qualified identifier `pkg.Name`
// a doc names in a code span or a fenced code block whose pkg is one of
// this module's package names and whose Name no package of that name
// declares at top level, tests included: a doc that still names a deleted
// function, such as scenario.RunEngine, fails.
func checkIdentifiers(t *testing.T, decls map[string]map[string]bool, path string, lines []string) {
	t.Helper()
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		code := codeSpan.FindAllString(line, -1)
		if fenced {
			code = []string{line}
		}
		for _, span := range code {
			for _, m := range qualRef.FindAllStringSubmatch(span, -1) {
				pkg, name := m[1], m[2]
				if names, ok := decls[pkg]; ok && !names[name] {
					t.Errorf("%s:%d names %s.%s, which package %s does not declare", path, i+1, pkg, name, pkg)
				}
			}
		}
	}
}

// anchorLink matches a Markdown link to a heading: an optional relative
// target file, then the #fragment.
var anchorLink = regexp.MustCompile(`\]\(([^)\s#]*)#([^)\s]+)\)`)

// checkAnchors fails on every link in a doc whose #fragment names no
// heading of its in-repo Markdown target (the doc itself for a bare
// #fragment), compared as GitHub renders heading anchors (headingSlugs).
func checkAnchors(t *testing.T, path string, lines []string) {
	t.Helper()
	for i, line := range lines {
		for _, m := range anchorLink.FindAllStringSubmatch(line, -1) {
			target, frag := m[1], m[2]
			if strings.Contains(target, "://") || (target != "" && !strings.HasSuffix(target, ".md")) {
				continue
			}
			file := path
			if target != "" {
				file = filepath.Join(filepath.Dir(path), target)
			}
			data, err := os.ReadFile(file)
			if err != nil {
				t.Errorf("%s:%d links to %s: %v", path, i+1, m[0], err)
				continue
			}
			if !headingSlugs(strings.Split(string(data), "\n"))[frag] {
				t.Errorf("%s:%d links to #%s, which is no heading of %s", path, i+1, frag, file)
			}
		}
	}
}

// headingSlugs returns the anchors GitHub gives a Markdown file's ATX
// headings outside fenced code: the heading text lowercased, with spaces
// turned into hyphens and every character but letters, digits, hyphens
// and underscores dropped; a repeated slug gets -1, -2, ... appended.
func headingSlugs(lines []string) map[string]bool {
	slugs := map[string]bool{}
	seen := map[string]int{}
	fenced := false
	for _, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		text := strings.TrimLeft(line, "#")
		if fenced || text == line || !strings.HasPrefix(text, " ") {
			continue
		}
		var b strings.Builder
		for _, r := range strings.ToLower(strings.TrimSpace(text)) {
			switch {
			case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
				b.WriteRune(r)
			case r == ' ':
				b.WriteByte('-')
			}
		}
		slug := b.String()
		if n := seen[slug]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			slugs[slug] = true
		}
		seen[slug]++
	}
	return slugs
}
