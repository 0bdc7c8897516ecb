package cli

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
// fails when there is any; the caller pass (callerGaps) first prints the
// names only a nested module calls, which fail nothing. ctx is not read.
func Docscheck(_ context.Context, args []string, stdout, stderr io.Writer) int {
	flags := newFlagSet("docscheck", stderr)
	return run(flags, args, stderr, func() error {
		root := "."
		if flags.NArg() > 0 {
			root = flags.Arg(0)
		}

		fset, pkgs, err := loadModule(root)
		if err != nil {
			return err
		}
		// Every package with non-test files needs a package comment; the
		// root package is the facade, and its exported identifiers need doc
		// comments too. The doc.go files join the docs that cite tests.
		var gaps, facade, testFiles []string
		docs := []string{"README.md", "DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
		for i, doc := range docs {
			docs[i] = filepath.Join(root, doc)
		}
		topDocs := slices.Clone(docs)
		for _, p := range pkgs {
			if len(p.files) > 0 && !slices.ContainsFunc(p.files, func(f *ast.File) bool { return strings.TrimSpace(f.Doc.Text()) != "" }) {
				gaps = append(gaps, p.rel+": package has no package comment (add a doc.go)")
			}
			if p.rel == "." {
				facade = facadeDocGaps(fset, p)
			}
			if slices.Contains(p.GoFiles, "doc.go") {
				docs = append(docs, p.path(root, "doc.go"))
			}
			for _, f := range slices.Concat(p.TestGoFiles, p.XTestGoFiles) {
				testFiles = append(testFiles, p.path(root, f))
			}
		}
		sort.Strings(gaps)

		stale, err := staleTestNames(testFiles, docs)
		if err != nil {
			return err
		}
		paths, err := stalePaths(root, topDocs)
		if err != nil {
			return err
		}
		callers, nestedOnly, err := callerGaps(root, fset, pkgs)
		if err != nil {
			return err
		}
		for _, line := range nestedOnly {
			fmt.Fprintln(stdout, line)
		}
		gaps = slices.Concat(gaps, orphanPackages(pkgs), facade, stale, paths, callers, controlBypasses(fset, pkgs))
		for _, gap := range gaps {
			fmt.Fprintln(stdout, gap)
		}
		if len(gaps) > 0 {
			return fmt.Errorf("%d documentation gaps", len(gaps))
		}
		return nil
	})
}

// controlBypasses returns one line per call of a policy hook (a method
// OnPlaced or OnExited declared in internal/scheduler, the Policy
// interface's included) outside internal/sim and internal/scheduler:
// injected events reach the run's policy through sim.Control, as trace
// events reach it through the simulator. A policy's own OnPlaced or
// OnExited may forward the hook to a policy it wraps. It also returns one
// line per call of a pool mutator (internal/cluster's Pool.Place, Exit,
// Migrate, Reserve, Release, Withdraw, Restore, AddHosts or RemoveHost) in
// the root module outside internal/sim and internal/cluster: internal/sim
// is the pool's one writer, so every drain claim goes through sim.Control.
// Nested modules stay out of this rule, so bench/ may time a bare pool.
func controlBypasses(fset *token.FileSet, pkgs []*listedPackage) []string {
	var gaps []string
	gap := func(at token.Pos, what string) {
		pos := fset.Position(at)
		gaps = append(gaps, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, what))
	}
	isHook := func(name string) bool { return name == "OnPlaced" || name == "OnExited" }
	isMutator := func(fn *types.Func) bool {
		switch fn.Name() {
		case "Place", "Exit", "Migrate", "Reserve", "Release", "Withdraw", "Restore", "AddHosts", "RemoveHost":
			recv := recvNamed(fn)
			return recv != nil && recv.Obj().Name() == "Pool" && strings.HasSuffix(fn.Pkg().Path(), "/internal/cluster")
		}
		return false
	}
	for _, p := range pkgs {
		if p.rel == "internal/sim" {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				forwards := ok && fd.Recv != nil && isHook(fd.Name.Name)
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[sel.Sel].(*types.Func)
					if !ok {
						return true
					}
					if isHook(fn.Name()) && !forwards && p.rel != "internal/scheduler" && strings.HasSuffix(fn.Pkg().Path(), "/internal/scheduler") {
						gap(call.Pos(), "calls a policy's "+fn.Name()+" outside internal/sim and internal/scheduler (inject events through sim.Control)")
					}
					if p.mod == "." && p.rel != "internal/cluster" && isMutator(fn) {
						gap(call.Pos(), "calls cluster.Pool."+fn.Name()+" outside internal/sim and internal/cluster (mutate the pool through sim)")
					}
					return true
				})
			}
		}
	}
	return gaps
}

// testToken matches a cited test, fuzz target or benchmark; subtest paths
// (TestX/case) end at the slash. testFunc matches one's declaration.
// pathToken matches a cited repository path under internal/, such as
// internal/cli/cli.go or ./internal/... in a go command line.
var (
	testToken = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Z]\w*)\(`)
	pathToken = regexp.MustCompile(`\binternal/[\w./-]*`)
)

// staleTestNames returns one complaint per testToken in docs that names no
// function of testFiles.
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
	return staleTokens(docs, testToken, "names no test function", func(name string) bool { return declared[name] })
}

// stalePaths returns one complaint per pathToken in docs that names no file
// or directory under root, once trailing punctuation and a trailing /... are
// trimmed.
func stalePaths(root string, docs []string) ([]string, error) {
	return staleTokens(docs, pathToken, "names no file or directory", func(tok string) bool {
		// Trimming dots and slashes also drops a trailing /....
		_, err := os.Stat(filepath.Join(root, strings.TrimRight(tok, ".,;:/")))
		return err == nil
	})
}

// staleTokens returns one "doc:line: token what" complaint per match of re
// in docs that resolves rejects. A doc that does not exist is skipped.
func staleTokens(docs []string, re *regexp.Regexp, what string, resolves func(string) bool) ([]string, error) {
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
			for _, tok := range re.FindAllString(line, -1) {
				if !resolves(tok) {
					stale = append(stale, fmt.Sprintf("%s:%d: %s %s", doc, i+1, tok, what))
				}
			}
		}
	}
	return stale, nil
}

// facadeDocGaps returns one complaint per undocumented exported identifier
// of the facade package p, in position order: files in go list's order,
// declarations in source order. Methods on unexported types are not godoc
// surface.
func facadeDocGaps(fset *token.FileSet, p *listedPackage) []string {
	var gaps []string
	complain := func(at token.Pos, what, name string) {
		pos := fset.Position(at)
		gaps = append(gaps, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", pos.Filename, pos.Line, what, name))
	}
	for _, af := range p.files {
		for _, decl := range af.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if n := recvNamed(p.info.Defs[d.Name]); !d.Name.IsExported() || n != nil && !n.Obj().Exported() {
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
	return gaps
}
