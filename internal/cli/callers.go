package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// listedPackage is a package as `go list` reports it, and, for one of the
// repository's own, its parsed non-test files and type information.
type listedPackage struct {
	ImportPath, Dir, Export            string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Standard                           bool

	mod   string // "." for the root module, else the nested module that lists it
	rel   string // Dir relative to the root, slash-separated
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// loadModule reads the module at root and the nested modules in
// root/*/go.mod (such as bench/) through `go list -export -deps`, and
// type-checks each of their packages once, from source, through one
// importer, so a use in any package resolves to the object its declaring
// package defined; standard packages come from the export data go list
// builds. It returns the repository's packages, dependencies first.
func loadModule(root string) (*token.FileSet, []*listedPackage, error) {
	nested, err := filepath.Glob(filepath.Join(root, "*", "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	mods := []string{"."}
	for _, gomod := range nested {
		mods = append(mods, filepath.Base(filepath.Dir(gomod)))
	}
	var listed []*listedPackage
	exports := map[string]string{}
	for _, m := range mods {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,Standard", "./...")
		cmd.Dir = filepath.Join(root, m)
		out, err := cmd.Output()
		if ee, ok := err.(*exec.ExitError); ok {
			err = errors.New(string(ee.Stderr))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("go list in %s: %v", cmd.Dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := &listedPackage{mod: m}
			if err := dec.Decode(p); err != nil {
				return nil, nil, err
			}
			exports[p.ImportPath] = p.Export
			listed = append(listed, p)
		}
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	var pkgs []*listedPackage
	for _, p := range listed {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		if p.rel, err = filepath.Rel(absRoot, p.Dir); err != nil {
			return nil, nil, err
		}
		p.rel = filepath.ToSlash(p.rel)
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, p.path(root, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		if p.pkg, err = (&types.Config{Importer: imp}).Check(p.ImportPath, fset, p.files, p.info); err != nil {
			return nil, nil, err
		}
		checked[p.ImportPath] = p.pkg
		pkgs = append(pkgs, p)
	}
	return fset, pkgs, nil
}

// path returns the path of the package's file name as root spells it.
func (p *listedPackage) path(root, name string) string { return filepath.Join(root, p.rel, name) }

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// orphanPackages returns one line per package of the root module under
// internal/ that no non-test package of the root module or of a nested one
// imports: a package only its own tests reach.
func orphanPackages(pkgs []*listedPackage) []string {
	imported := map[string]bool{}
	for _, p := range pkgs {
		for _, imp := range p.pkg.Imports() {
			imported[imp.Path()] = true
		}
	}
	var gaps []string
	for _, p := range pkgs {
		if p.mod == "." && strings.HasPrefix(p.rel, "internal/") && !imported[p.ImportPath] {
			gaps = append(gaps, p.rel+": package has no non-test importer (delete it, or import it)")
		}
	}
	slices.Sort(gaps)
	return gaps
}

// keepFile, at the module root, keeps exported internal/ names that have no
// non-test caller: one "pkg.Name  reason" line each, pkg the path below
// internal/ and a method Type.Method; # starts a comment line.
const keepFile = "docscheck-keep.txt"

// subject is an exported name declared in a non-test file under internal/.
type subject struct {
	label   string          // pkg.Name or pkg.Type.Method, pkg the path below internal/
	where   string          // file:line
	body    ast.Node        // a function's or method's declaration, which is not a use of it
	callers map[string]bool // modules with a non-test use: "." or a nested one
	api     bool            // a method of a type the root package's exported API reaches
	exempt  bool            // an interface method or a stdlib-shaped one
}

// findCallers returns the exported internal/ names of the root module's
// packages by label, pkg.Name or pkg.Type.Method with pkg the path below
// internal/, each with the modules that use it outside its own function or
// method declaration, and whether the root package's API reaches it.
func findCallers(fset *token.FileSet, pkgs []*listedPackage) map[string]*subject {
	subjects := map[types.Object]*subject{}
	ifaces := map[*types.Interface]bool{}
	for _, p := range pkgs {
		rel, inInternal := strings.CutPrefix(p.rel, "internal/")
		for id, obj := range p.info.Defs {
			n := recvNamed(obj)
			switch {
			case obj == nil || !id.IsExported():
			case n != nil && types.IsInterface(n): // an interface's method, not a declaration
			case inInternal && (n != nil || obj.Parent() == p.pkg.Scope()):
				label := rel
				if n != nil {
					label += "." + n.Obj().Name()
				}
				pos := fset.Position(id.Pos())
				subjects[obj] = &subject{label: label + "." + id.Name, callers: map[string]bool{},
					where: fmt.Sprintf("%s:%d", pos.Filename, pos.Line)}
			}
			// Interface literals, such as a type assertion's, declare their
			// methods here; named interfaces come from the package scopes.
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
				if it, ok := fn.Signature().Recv().Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && subjects[p.info.Defs[fd.Name]] != nil {
					subjects[p.info.Defs[fd.Name]].body = fd
				}
			}
		}
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a generic method of an instantiated type
			}
			if s := subjects[obj]; s != nil && (s.body == nil || id.Pos() < s.body.Pos() || id.Pos() >= s.body.End()) {
				s.callers[p.mod] = true
			}
		}
	}
	var queue []*types.Package
	repo := map[*types.Package]bool{}
	for _, p := range pkgs {
		queue = append(queue, p.pkg)
		repo[p.pkg] = true
		if p.mod == "." && p.rel == "." {
			markAPI(p.pkg, repo, subjects)
		}
	}
	seen := map[*types.Package]bool{}
	for ; len(queue) > 0; queue = queue[1:] {
		if p := queue[0]; !seen[p] {
			seen[p] = true
			queue = append(queue, p.Imports()...)
			for _, name := range p.Scope().Names() {
				if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
	}
	labelled := map[string]*subject{}
	for obj, s := range subjects {
		s.exempt = exempt(obj, ifaces)
		labelled[s.label] = s
	}
	return labelled
}

// markAPI marks the subjects a program importing root, the facade, can call
// although it cannot import internal/: the exported methods of every
// repository type root's exported names reach through aliases, signatures,
// exported struct fields, type arguments and those methods' own
// signatures, transitively. repo holds the packages checked so far, which
// precede root because go list orders dependencies first.
func markAPI(root *types.Package, repo map[*types.Package]bool, subjects map[types.Object]*subject) {
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if !repo[t.Obj().Pkg()] {
				return
			}
			for i := range t.TypeArgs().Len() {
				walk(t.TypeArgs().At(i))
			}
			for i := range t.NumMethods() {
				if m := t.Method(i); m.Exported() {
					if s := subjects[m.Origin()]; s != nil {
						s.api = true
					}
					walk(m.Type())
				}
			}
			walk(t.Underlying())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case interface{ Elem() types.Type }: // a pointer, slice, array or channel
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := range t.Len() {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := range t.NumFields() {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := range t.NumMethods() {
				walk(t.Method(i).Type())
			}
		}
	}
	for _, name := range root.Scope().Names() {
		if obj := root.Scope().Lookup(name); obj.Exported() {
			walk(obj.Type())
		}
	}
}

// recvNamed returns the named type a method is declared on, or nil.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return nil
	}
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// exempt reports whether obj is a method the standard library calls by name
// (String, Error, Marshal…, Unmarshal…, and errors' Unwrap, Is, As) or one
// through which its receiver type, or a pointer to it, implements one of
// ifaces.
func exempt(obj types.Object, ifaces map[*types.Interface]bool) bool {
	n, name := recvNamed(obj), obj.Name()
	if n == nil || n.TypeParams().Len() > 0 { // a generic type implements nothing until instantiated
		return false
	}
	if slices.Contains([]string{"String", "Error", "Unwrap", "Is", "As"}, name) || strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal") {
		return true
	}
	for it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, obj.Pkg(), name); m != nil &&
			(types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
			return true
		}
	}
	return false
}

// callerGaps is docscheck's caller pass over pkgs, the packages loadModule
// read at root. gaps has one line per subject with no non-test caller that
// keepFile does not keep, and one per keepFile entry without a reason,
// whose name has a caller, is reachable from the root package's API or is
// exempt, or that names no subject.
// nestedOnly has one line per subject only nested modules call, which
// fails nothing.
func callerGaps(root string, fset *token.FileSet, pkgs []*listedPackage) (gaps, nestedOnly []string, err error) {
	subjects := findCallers(fset, pkgs)
	data, err := os.ReadFile(filepath.Join(root, keepFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	kept := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		name, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		if name == "" || strings.HasPrefix(name, "#") {
			continue
		}
		kept[name] = true
		where := fmt.Sprintf("%s:%d: %s", keepFile, i+1, name)
		switch s := subjects[name]; {
		case strings.TrimSpace(reason) == "":
			gaps = append(gaps, where+" has no reason")
		case s == nil:
			gaps = append(gaps, where+" names no exported internal/ declaration (drop the entry)")
		case len(s.callers) > 0 || s.api || s.exempt:
			gaps = append(gaps, where+" has a non-test caller, is on the root package's API or is an interface method (drop the entry)")
		}
	}
	for _, label := range slices.Sorted(maps.Keys(subjects)) {
		switch s := subjects[label]; {
		case s.exempt || s.api || s.callers["."]:
		case len(s.callers) == 0 && !kept[label]:
			gaps = append(gaps, fmt.Sprintf("%s: exported %s has no non-test caller (delete it, or keep it in %s with a reason)", s.where, label, keepFile))
		case len(s.callers) > 0:
			nestedOnly = append(nestedOnly, fmt.Sprintf("only %s/ calls %s", strings.Join(slices.Sorted(maps.Keys(s.callers)), "/ and "), label))
		}
	}
	return gaps, nestedOnly, nil
}
