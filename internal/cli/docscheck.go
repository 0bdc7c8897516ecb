package cli

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Docscheck runs the docscheck command (see cmd/docscheck) with args, the
// command line without the program name: an optional repository root,
// default ".". It prints one line per documentation gap on stdout and
// fails when there is any. ctx is not read.
func Docscheck(_ context.Context, args []string, stdout, stderr io.Writer) int {
	flags := newFlagSet("docscheck", stderr)
	return run(flags, args, stderr, func() error {
		root := "."
		if flags.NArg() > 0 {
			root = flags.Arg(0)
		}

		// Collect package directories (any directory holding non-test .go
		// files), the test files and the package doc.go files.
		dirs := map[string][]string{}
		var testFiles, topDocs []string
		for _, f := range []string{"README.md", "DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
			topDocs = append(topDocs, filepath.Join(root, f))
		}
		docs := slices.Clone(topDocs) // the walk adds the doc.go files
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(name, "_test.go") {
				testFiles = append(testFiles, path)
				return nil
			}
			if !strings.HasSuffix(name, ".go") {
				return nil
			}
			if name == "doc.go" {
				docs = append(docs, path)
			}
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
			return nil
		})
		if err != nil {
			return err
		}

		var missing []string
		fset := token.NewFileSet()
		for dir, files := range dirs {
			documented := false
			for _, f := range files {
				// PackageClauseOnly still attaches the doc comment.
				af, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
				if err != nil {
					return err
				}
				if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				missing = append(missing, dir)
			}
		}
		sort.Strings(missing)
		for _, dir := range missing {
			fmt.Fprintf(stdout, "%s: package has no package comment (add a doc.go)\n", dir)
		}

		// Stricter facade gate: every exported identifier of the root package
		// must be documented.
		facade, err := facadeDocGaps(fset, dirs[filepath.Clean(root)])
		if err != nil {
			return err
		}
		stale, err := staleTestNames(testFiles, docs)
		if err != nil {
			return err
		}
		paths, err := stalePaths(root, topDocs)
		if err != nil {
			return err
		}
		gaps := slices.Concat(facade, stale, paths)
		for _, gap := range gaps {
			fmt.Fprintln(stdout, gap)
		}
		if n := len(missing) + len(gaps); n > 0 {
			return fmt.Errorf("%d documentation gaps", n)
		}
		return nil
	})
}

// testToken matches a cited test, fuzz target or benchmark; subtest paths
// (TestX/case) end at the slash. testFunc matches one's declaration.
var (
	testToken = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Z]\w*)\(`)
)

// staleTestNames returns one complaint per testToken in docs that names no
// function of testFiles. A doc that does not exist is skipped.
func staleTestNames(testFiles, docs []string) ([]string, error) {
	declared := map[string]bool{}
	for _, f := range testFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, m := range testFunc.FindAllSubmatch(data, -1) {
			declared[string(m[1])] = true
		}
	}
	var stale []string
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range testToken.FindAllString(line, -1) {
				if !declared[name] {
					stale = append(stale, fmt.Sprintf("%s:%d: %s names no test function", doc, i+1, name))
				}
			}
		}
	}
	return stale, nil
}

// pathToken matches a cited repository path under internal/, such as
// internal/cli/cli.go or ./internal/... in a go command line.
var pathToken = regexp.MustCompile(`\binternal/[\w./-]*`)

// stalePaths returns one complaint per pathToken in docs that names no file
// or directory under root, once trailing punctuation and a trailing /... are
// trimmed. A doc that does not exist is skipped.
func stalePaths(root string, docs []string) ([]string, error) {
	var stale []string
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, tok := range pathToken.FindAllString(line, -1) {
				// Trimming dots and slashes also drops a trailing /....
				if _, err := os.Stat(filepath.Join(root, strings.TrimRight(tok, ".,;:/"))); err != nil {
					stale = append(stale, fmt.Sprintf("%s:%d: %s names no file or directory", doc, i+1, tok))
				}
			}
		}
	}
	return stale, nil
}

// facadeDocGaps parses the facade package's files and returns one complaint
// per undocumented exported identifier, in position order: files come in
// the walk's lexical order, declarations in source order.
func facadeDocGaps(fset *token.FileSet, files []string) ([]string, error) {
	var gaps []string
	complain := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		gaps = append(gaps, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range af.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
					complain(d.Pos(), "function", d.Name.Name)
				}
			case *ast.GenDecl:
				groupDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !groupDoc && (s.Doc == nil || strings.TrimSpace(s.Doc.Text()) == "") {
							complain(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						specDoc := s.Doc != nil && strings.TrimSpace(s.Doc.Text()) != ""
						for _, n := range s.Names {
							if n.IsExported() && !groupDoc && !specDoc {
								complain(n.Pos(), "value", n.Name)
							}
						}
					}
				}
			}
		}
	}
	return gaps, nil
}

// exportedReceiver reports whether a function is free-standing or a method
// on an exported type (methods on unexported types are not godoc surface).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true // unknown shape: err on the side of requiring docs
		}
	}
}
