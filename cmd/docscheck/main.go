// Command docscheck is the documentation gate behind CI's docs job: it
// walks every Go package in the repository and fails (exit 1, one line per
// offender) unless at least one non-test file in the package carries a
// godoc package comment. It is a dependency-free stand-in for staticcheck's
// ST1000, extended to main packages, so `go doc` always has something to
// say about every layer.
//
// The public `lava` facade (the root package) is held to a stricter bar:
// every exported identifier — functions, methods on exported types, types,
// and each exported const/var (or its declaration group) — must carry a doc
// comment, so the quickstart surface godoc users see is fully documented.
//
// Test references must resolve: every Test…, Fuzz… or Benchmark… token in
// README.md, DESIGN.md, a package doc.go, the CI workflow or the verify skill
// must name a function declared in some _test.go file under root, so a
// deleted or renamed test cannot stay cited.
//
// Usage:
//
//	docscheck [root]    # root defaults to "."
package main

import (
	"errors"
	"fmt"
	"go/ast"
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
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}

	// Collect package directories (any directory holding non-test .go
	// files), the test files and the package doc.go files.
	dirs := map[string][]string{}
	var testFiles, docs []string
	for _, f := range []string{"README.md", "DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		docs = append(docs, filepath.Join(root, f))
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
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
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}

	var missing []string
	fset := token.NewFileSet()
	for dir, files := range dirs {
		documented := false
		for _, f := range files {
			// PackageClauseOnly still attaches the doc comment.
			af, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", f, err)
				os.Exit(2)
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
		fmt.Printf("%s: package has no package comment (add a doc.go)\n", dir)
	}

	// Stricter facade gate: every exported identifier of the root package
	// must be documented.
	facade := facadeDocGaps(fset, dirs[filepath.Clean(root)])
	for _, gap := range facade {
		fmt.Println(gap)
	}
	stale := staleTestNames(testFiles, docs)
	for _, s := range stale {
		fmt.Println(s)
	}
	if len(missing) > 0 || len(facade) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
}

// testToken matches a cited test, fuzz target or benchmark; subtest paths
// (TestX/case) end at the slash. testFunc matches one's declaration.
var (
	testToken = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Z]\w*)\(`)
)

// staleTestNames returns one complaint per testToken in docs that names no
// function of testFiles. A doc that does not exist is skipped.
func staleTestNames(testFiles, docs []string) []string {
	declared := map[string]bool{}
	for _, f := range testFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
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
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range testToken.FindAllString(line, -1) {
				if !declared[name] {
					stale = append(stale, fmt.Sprintf("%s:%d: %s names no test function", doc, i+1, name))
				}
			}
		}
	}
	return stale
}

// facadeDocGaps parses the facade package's files and returns one complaint
// per undocumented exported identifier, sorted by position.
func facadeDocGaps(fset *token.FileSet, files []string) []string {
	type gap struct {
		file string
		line int
		msg  string
	}
	var found []gap
	complain := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		found = append(found, gap{p.Filename, p.Line,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name)})
	}
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", f, err)
			os.Exit(2)
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
	sort.Slice(found, func(i, j int) bool {
		if found[i].file != found[j].file {
			return found[i].file < found[j].file
		}
		return found[i].line < found[j].line
	})
	gaps := make([]string, len(found))
	for i, g := range found {
		gaps[i] = g.msg
	}
	return gaps
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
