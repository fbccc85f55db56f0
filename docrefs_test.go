package hetis

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches a name ending in .md: a bare file name or a path.
var mdRef = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestMarkdownReferencesExist fails when a Go file or a doc names a
// Markdown file that is not in the repository. The docs are the READMEs
// and doc/; the root's other Markdown files record history or quote other
// repositories, so they may name files that are gone or never lived
// here. A name resolves against the naming file's directory, the
// repository root, or doc/.
func TestMarkdownReferencesExist(t *testing.T) {
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
		for i, line := range strings.Split(string(data), "\n") {
			for _, ref := range mdRef.FindAllString(line, -1) {
				if strings.Contains(ref, "//") {
					continue // part of a URL
				}
				if !mdExists(filepath.Join(filepath.Dir(path), ref), ref, filepath.Join("doc", ref)) {
					t.Errorf("%s:%d names %s, which is not in the repository", path, i+1, ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
