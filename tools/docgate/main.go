// Command docgate is the repo's documentation gate, run by ci.sh. It fails
// when any gated package — the root calibre package and everything under
// internal/ — lacks a godoc package comment, when the repo as a whole has
// fewer runnable Example functions (doc + test in one, with an // Output:
// comment) than the required minimum, or when a Go comment or one of the
// repo's own markdown documents names a document (a capitalised name
// ending in .md, like every document here) that is not in the repository.
//
//	go run ./tools/docgate [-min-examples 3] [root]
package main

import (
	"flag"
	"fmt"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	minExamples := flag.Int("min-examples", 3, "minimum number of runnable Example functions repo-wide")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	if err := run(root, *minExamples); err != nil {
		fmt.Fprintln(os.Stderr, "docgate:", err)
		os.Exit(1)
	}
}

// gated reports whether the package at rel (slash-separated, "." for the
// repo root) must carry a package comment.
func gated(rel string) bool {
	if rel == "." {
		return true
	}
	return strings.HasPrefix(rel, "internal/") || rel == "internal"
}

// docRef matches a document named the way this repo names its own —
// README.md, ARCHITECTURE.md, bench/README.md — and not the lower-case
// artifacts programs write (sweep-report.md).
var docRef = regexp.MustCompile(`([A-Za-z0-9_.-]+/)*[A-Z][A-Z0-9_]*\.md\b`)

// ungatedDocs are markdown files whose references are not checked: the two
// history files, which name documents of earlier states of the repo, and
// the inputs the repo is grown from.
var ungatedDocs = map[string]bool{
	"CHANGES.md": true, "ROADMAP.md": true,
	"ISSUE.md": true, "PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true,
}

// danglingDocs returns the documents text (found in the file at rel) names
// that do not exist: a path is tried against the repo root and against
// rel's directory, a bare name against every document in the tree.
func danglingDocs(root, rel, text string, docNames map[string]bool) []string {
	var out []string
	for _, ref := range docRef.FindAllString(text, -1) {
		if !strings.Contains(ref, "/") && docNames[ref] {
			continue
		}
		_, errRoot := os.Stat(filepath.Join(root, ref))
		_, errDir := os.Stat(filepath.Join(root, filepath.Dir(rel), ref))
		if errRoot != nil && errDir != nil {
			out = append(out, fmt.Sprintf("%s names %s", rel, ref))
		}
	}
	return out
}

func run(root string, minExamples int) error {
	var missing, dangling []string
	examples := 0

	// Collect every directory containing Go files, and every markdown
	// document (those also under dot-directories: the verify skill).
	dirs := map[string]bool{}
	var docs []string
	docNames := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return fs.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		hidden := strings.HasPrefix(rel, ".") || strings.Contains(rel, "/.")
		switch {
		case strings.HasSuffix(path, ".go") && !hidden:
			dirs[filepath.Dir(path)] = true
		case strings.HasSuffix(path, ".md"):
			docs = append(docs, rel)
			docNames[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, rel := range docs {
		if ungatedDocs[rel] {
			continue
		}
		text, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return err
		}
		dangling = append(dangling, danglingDocs(root, rel, string(text), docNames)...)
	}

	sorted := make([]string, 0, len(dirs))
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)

	for _, dir := range sorted {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		hasDoc := false
		hasNonTest := false
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			file, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("%s: %w", filepath.Join(rel, e.Name()), err)
			}
			for _, c := range file.Comments {
				dangling = append(dangling, danglingDocs(root, filepath.Join(rel, e.Name()), c.Text(), docNames)...)
			}
			if strings.HasSuffix(e.Name(), "_test.go") {
				for _, ex := range doc.Examples(file) {
					if ex.Output != "" {
						examples++
					}
				}
				continue
			}
			hasNonTest = true
			if file.Doc != nil && strings.TrimSpace(file.Doc.Text()) != "" {
				hasDoc = true
			}
		}
		if hasNonTest && gated(rel) && !hasDoc {
			missing = append(missing, rel)
		}
	}

	if len(missing) > 0 {
		return fmt.Errorf("packages missing a godoc package comment:\n\t%s", strings.Join(missing, "\n\t"))
	}
	if len(dangling) > 0 {
		return fmt.Errorf("documents named but not in the repository:\n\t%s", strings.Join(dangling, "\n\t"))
	}
	if examples < minExamples {
		return fmt.Errorf("found %d runnable Example functions (with // Output:), need ≥ %d", examples, minExamples)
	}
	fmt.Printf("docgate: all gated packages documented; every document named exists; %d runnable examples (≥ %d required)\n", examples, minExamples)
	return nil
}
