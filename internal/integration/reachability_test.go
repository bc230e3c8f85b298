package integration

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Reasons shared by several entries of unreachedAllowlist.
const (
	fixtureReason = "fixture: other packages' tests build their graphs with it"
	oracleReason  = "oracle: other packages' tests check their results with it"
	minorReason   = "fixture: proptest's Theorem 1.4 union-closure tests use this minor-closed property"
)

// unreachedAllowlist names the non-test functions that no main reaches but
// that stay in production files, each with the reason it stays. A key is
// "<package dir>.<Func>" or "<package dir>.<Type>.<Method>", the package
// dir relative to the module root.
var unreachedAllowlist = map[string]string{
	"internal/graph.Path":                fixtureReason,
	"internal/graph.Star":                fixtureReason,
	"internal/graph.Wheel":               fixtureReason,
	"internal/graph.Prism":               fixtureReason,
	"internal/graph.Subdivide":           fixtureReason,
	"internal/graph.BalancedBinaryTree":  fixtureReason,
	"internal/graph.Graph.Clone":         "fixture: Subdivide copies its input with it",
	"internal/graph.EdgesOf":             oracleReason,
	"internal/graph.Graph.Neighbors":     oracleReason,
	"internal/graph.View.Neighbors":      oracleReason,
	"internal/graph.Graph.Connected":     oracleReason,
	"internal/graph.Graph.Components":    oracleReason,
	"internal/graph.View.BFS":            oracleReason,
	"internal/graph.View.Materialize":    oracleReason,
	"internal/graph.View.BaseVertices":   "oracle: Materialize's tests map its vertices back with it",
	"internal/graph.Graph.Degeneracy":    "oracle: the maxis test of the §3.1 bound n/(2d+1) reads d from it",
	"internal/minor.IsOuterplanar":       minorReason,
	"internal/minor.Outerplanarity":      minorReason,
	"internal/minor.HasTreewidthAtMost2": minorReason,
	"internal/minor.TreewidthAtMost2":    minorReason,
	"internal/primitives.Uniform":        oracleReason,
	"internal/solvers.IsIndependentSet":  oracleReason,
	"internal/congest.Observer.Rounds":   oracleReason,
	"internal/separator.BruteForce":      "entry point: README's entry-point table names it",
	"internal/expander.ProjectStale":     "planned caller: ROADMAP item 4's drift gauge",
}

// TestProductionCodeIsReachable fails on any non-test function that no main
// reaches and that unreachedAllowlist does not name, and on any allowlist
// entry that is now reached or gone. Production code is what production
// runs: a function only tests call belongs in a _test.go file, or nowhere.
//
// The scan type-checks every non-test file of the module and of the bench
// module (the standard library from source, function bodies skipped) and
// walks references from its roots: every main function, and the init
// functions and package-level variable initializers of the packages the
// mains import. A call through an interface method reaches every method of
// that name on a type that reached code mentions, and such a type's methods
// that implement an interface of an imported standard-library package
// (error, fmt.Stringer, sort.Interface, ...) count as reached too, since
// the standard library may call them.
func TestProductionCodeIsReachable(t *testing.T) {
	prog, err := moduleProgram()
	if err != nil {
		t.Fatal(err)
	}
	unreached := prog.unreached()
	var stray []string
	lines := 0
	found := make(map[string]bool)
	for _, f := range unreached {
		found[f.key] = true
		if _, ok := unreachedAllowlist[f.key]; !ok {
			stray = append(stray, fmt.Sprintf("%s (%s, %d lines)", f.key, f.pos, f.lines))
			lines += f.lines
		}
	}
	if len(stray) > 0 {
		t.Errorf("%d non-test functions (%d lines) that no main reaches: move each into a _test.go file, delete it, or allowlist it with a reason:\n\t%s",
			len(stray), lines, strings.Join(stray, "\n\t"))
	}
	var stale []string
	for key := range unreachedAllowlist {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("allowlisted functions that a main now reaches or that are gone; drop their entries:\n\t%s",
			strings.Join(stale, "\n\t"))
	}
}

// unsetFieldAllowlist names the exported option fields that no non-test
// code sets but that stay, each with the reason it stays. A key is
// "<package dir>.<Type>.<Field>", the package dir relative to the module
// root.
var unsetFieldAllowlist = map[string]string{}

// TestOptionFieldsAreSet fails on any exported field of an option struct
// that no non-test code sets and that unsetFieldAllowlist does not name, and
// on any allowlist entry that is now set or gone. Each such field doubles
// the configurations tests must cover for a value production never uses:
// the value production uses belongs in a constant.
//
// An option struct is an exported struct type under internal/ named Spec,
// Plan or Params, or whose name ends in Options or Config. A field counts
// as set when non-test code writes it as a keyed element of a composite
// literal, on the left of an assignment, or in an increment or decrement.
// Writes inside the type's own methods do not count: withDefaults fills in
// a default that no caller chose. A field with a json tag is decoded from a
// request body, so the request sets it.
func TestOptionFieldsAreSet(t *testing.T) {
	prog, err := moduleProgram()
	if err != nil {
		t.Fatal(err)
	}
	type optionField struct {
		key   string
		owner *types.TypeName
		pos   token.Position
	}
	fields := make(map[*types.Var]optionField)
	for _, p := range prog.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, s := range gd.Specs {
					ts := s.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					name := ts.Name.Name
					if !ok || !ts.Name.IsExported() || !(name == "Spec" || name == "Plan" || name == "Params" ||
						strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
						continue
					}
					owner := prog.info.Defs[ts.Name].(*types.TypeName)
					for _, fl := range st.Fields.List {
						if fl.Tag != nil {
							tag, err := strconv.Unquote(fl.Tag.Value)
							if err != nil {
								t.Fatal(err)
							}
							if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
								continue
							}
						}
						for _, id := range fl.Names {
							if id.IsExported() {
								fields[prog.info.Defs[id].(*types.Var)] = optionField{
									key:   p.dir + "." + name + "." + id.Name,
									owner: owner,
									pos:   prog.fset.Position(id.Pos()),
								}
							}
						}
					}
				}
			}
		}
	}

	set := make(map[*types.Var]bool)
	for _, p := range prog.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var recv *types.TypeName
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					rt := prog.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					recv = rt.(*types.Named).Obj()
				}
				write := func(id *ast.Ident) {
					if v, ok := prog.info.Uses[id].(*types.Var); ok {
						if fld, ok := fields[v]; ok && fld.owner != recv {
							set[v] = true
						}
					}
				}
				writeSel := func(e ast.Expr) {
					if sel, ok := e.(*ast.SelectorExpr); ok {
						write(sel.Sel)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									write(id)
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							writeSel(lhs)
						}
					case *ast.IncDecStmt:
						writeSel(n.X)
					}
					return true
				})
			}
		}
	}

	var unset []string
	found := make(map[string]bool)
	for v, fld := range fields {
		if set[v] {
			continue
		}
		found[fld.key] = true
		if _, ok := unsetFieldAllowlist[fld.key]; !ok {
			unset = append(unset, fmt.Sprintf("%s (%s)", fld.key, fld.pos))
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d exported option fields that no non-test code sets: replace each with the value production uses, or allowlist it with a reason:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
	var stale []string
	for key := range unsetFieldAllowlist {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("allowlisted option fields that non-test code now sets or that are gone; drop their entries:\n\t%s",
			strings.Join(stale, "\n\t"))
	}
}

// srcPackage is one parsed non-test package of the module.
type srcPackage struct {
	dir   string // relative to the module root, slash-separated
	name  string
	files []*ast.File
	types *types.Package
}

// program is the type-checked non-test code of the module and of the
// bench module, which imports the module's packages by their own paths.
type program struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*srcPackage // by import path
	info *types.Info
}

const modulePath = "expandergap"

// moduleProgram loads the program once for both guards, which only read it.
var moduleProgram = sync.OnceValues(func() (*program, error) {
	return loadProgram(filepath.Join("..", ".."))
})

func loadProgram(root string) (*program, error) {
	// Pure-Go file sets, so the source importer never runs cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	prog := &program{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*srcPackage),
		info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p := &srcPackage{dir: filepath.ToSlash(rel), name: bp.Name}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		importPath := modulePath
		if p.dir != "." {
			importPath += "/" + p.dir
		}
		prog.pkgs[importPath] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range prog.pkgs {
		if _, err := prog.Import(path); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// Import implements types.Importer.
func (prog *program) Import(path string) (*types.Package, error) {
	return prog.ImportFrom(path, "", 0)
}

// ImportFrom type-checks a module package on first import and hands every
// other path to the standard library's source importer.
func (prog *program) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p, ok := prog.pkgs[path]
	if !ok {
		return prog.std.ImportFrom(path, dir, mode)
	}
	if p.types == nil {
		conf := types.Config{Importer: prog}
		pkg, err := conf.Check(path, prog.fset, p.files, prog.info)
		if err != nil {
			return nil, err
		}
		p.types = pkg
	}
	return p.types, nil
}

// unreachedFunc is one non-test function that no root reaches.
type unreachedFunc struct {
	key   string
	pos   token.Position
	lines int
}

// reach is the state of one reachability walk.
type reach struct {
	prog    *program
	decls   map[*types.Func]*ast.FuncDecl
	keys    map[*types.Func]string
	reached map[*types.Func]bool
	named   map[*types.TypeName]bool // module types that reached code mentions
	dynamic map[string]bool          // method names called through an interface
	stdIfcs []*types.Interface
	queue   []ast.Node
}

func (prog *program) unreached() []unreachedFunc {
	r := &reach{
		prog:    prog,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		keys:    make(map[*types.Func]string),
		reached: make(map[*types.Func]bool),
		named:   make(map[*types.TypeName]bool),
		dynamic: make(map[string]bool),
	}
	seenIfc := make(map[*types.Interface]bool)
	for _, p := range prog.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := prog.info.Defs[fd.Name].(*types.Func)
				r.decls[fn] = fd
				r.keys[fn] = p.dir + "." + funcName(fn)
			}
		}
		for _, imp := range p.types.Imports() {
			if _, own := prog.pkgs[imp.Path()]; own {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				if ifc, ok := tn.Type().Underlying().(*types.Interface); ok && ifc.NumMethods() > 0 && !seenIfc[ifc] {
					seenIfc[ifc] = true
					r.stdIfcs = append(r.stdIfcs, ifc)
				}
			}
		}
	}
	r.stdIfcs = append(r.stdIfcs, errorIfc)

	// Roots: every main, and the inits and package-level initializers of
	// the packages linked into one.
	linked := make(map[*types.Package]bool)
	var link func(pkg *types.Package)
	link = func(pkg *types.Package) {
		if linked[pkg] {
			return
		}
		linked[pkg] = true
		for _, imp := range pkg.Imports() {
			if _, own := prog.pkgs[imp.Path()]; own {
				link(imp)
			}
		}
	}
	for _, p := range prog.pkgs {
		if p.name == "main" {
			link(p.types)
		}
	}
	for _, p := range prog.pkgs {
		if !linked[p.types] {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || p.name == "main" && d.Name.Name == "main") {
						r.mark(prog.info.Defs[d.Name].(*types.Func))
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						r.queue = append(r.queue, d)
					}
				}
			}
		}
	}
	for len(r.queue) > 0 {
		n := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		ast.Inspect(n, r.visit)
	}

	var out []unreachedFunc
	for fn, fd := range r.decls {
		if r.reached[fn] {
			continue
		}
		pos := prog.fset.Position(fd.Pos())
		out = append(out, unreachedFunc{
			key:   r.keys[fn],
			pos:   pos,
			lines: prog.fset.Position(fd.End()).Line - pos.Line + 1,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// funcName is fn's name, qualified by its receiver's type name for a
// method.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name() + "." + fn.Name()
}

// visit records what one node of reached code refers to.
func (r *reach) visit(n ast.Node) bool {
	expr, ok := n.(ast.Expr)
	if !ok {
		return true
	}
	if tv, ok := r.prog.info.Types[expr]; ok {
		r.mention(tv.Type)
	}
	if id, ok := n.(*ast.Ident); ok {
		switch obj := r.prog.info.Uses[id].(type) {
		case *types.Func:
			r.mark(obj)
		case *types.TypeName:
			r.mention(obj.Type())
		}
	}
	return true
}

// mark reaches fn. Reaching an interface method reaches the method of that
// name on every mentioned type.
func (r *reach) mark(fn *types.Func) {
	fn = fn.Origin()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		if !r.dynamic[fn.Name()] {
			r.dynamic[fn.Name()] = true
			for tn := range r.named {
				r.markMethod(tn, fn.Name())
			}
		}
		return
	}
	fd, own := r.decls[fn]
	if !own || r.reached[fn] {
		return
	}
	r.reached[fn] = true
	if fd.Body != nil {
		r.queue = append(r.queue, fd.Body)
	}
}

// mention records that reached code uses a value or name of type t.
func (r *reach) mention(t types.Type) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	tn := named.Origin().Obj()
	if r.named[tn] || tn.Pkg() == nil {
		return
	}
	if _, own := r.prog.pkgs[tn.Pkg().Path()]; !own {
		return
	}
	r.named[tn] = true
	for name := range r.dynamic {
		r.markMethod(tn, name)
	}
	ptr := types.NewPointer(tn.Type())
	for _, ifc := range r.stdIfcs {
		if types.Implements(ptr, ifc) {
			for i := 0; i < ifc.NumMethods(); i++ {
				r.markMethod(tn, ifc.Method(i).Name())
			}
		}
	}
	if types.Implements(ptr, errorIfc) {
		// errors.Is and errors.As find these by an assertion to an
		// unnamed interface.
		for _, name := range []string{"Unwrap", "Is", "As"} {
			r.markMethod(tn, name)
		}
	}
}

var errorIfc = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// markMethod reaches the method called name of type tn, if it has one.
func (r *reach) markMethod(tn *types.TypeName, name string) {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, tn.Pkg(), name)
	if fn, ok := obj.(*types.Func); ok {
		r.mark(fn)
	}
}
