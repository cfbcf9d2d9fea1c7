package mcmgpu

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "mcmgpu"

// TestEveryInternalExportHasACaller fails on each exported identifier under
// internal/ that no non-test file of the module, nor of the benchmark module
// in bench/, references. An export only tests call is an API nobody uses:
// delete it, or unexport it when an in-package test needs the probe.
//
// A method also counts as used when its type satisfies an interface declared
// in the module or in the standard library with a method of that name
// (String, Error, ServeHTTP, MarshalJSON, ...), or when the root package
// re-exports its type, which makes the method public API.
func TestEveryInternalExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	fset := token.NewFileSet()
	s := &exportScan{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		path := modulePath
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		_, err = s.Import(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	used := s.used()
	root := s.pkgs[modulePath].Scope()
	for _, name := range root.Names() {
		tn, ok := root.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
		for i := 0; i < mset.Len(); i++ {
			used[mset.At(i).Obj()] = true
		}
	}
	ifaces := s.interfaces()

	var dead []types.Object
	for path, pkg := range s.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() && !used[obj] {
				dead = append(dead, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfiesInterface(named, m.Name(), ifaces) {
					dead = append(dead, m)
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Pos() < dead[j].Pos() })
	for _, obj := range dead {
		t.Errorf("%s: %s is exported but no non-test code references it", fset.Position(obj.Pos()), exportName(obj))
	}
}

// exportScan type-checks the module's non-test files. It is the importer
// for module paths, so every package is checked once and all of them share
// one set of objects; the standard library comes from the source importer.
type exportScan struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return s.std.Import(path)
	}
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "." + strings.TrimPrefix(path, modulePath)
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	s.files = append(s.files, files...)
	return pkg, nil
}

// used returns every object some checked file references from outside the
// object's own declaration. A type's declaration includes its methods, so a
// type that only its own methods mention, or a function that only calls
// itself, stays unused.
func (s *exportScan) used() map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, f := range s.files {
		for _, decl := range f.Decls {
			owners := map[types.Object]bool{}
			switch d := decl.(type) {
			case *ast.FuncDecl:
				owners[s.info.Defs[d.Name]] = true
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if index, ok := recv.(*ast.IndexExpr); ok {
						recv = index.X
					}
					if index, ok := recv.(*ast.IndexListExpr); ok {
						recv = index.X
					}
					owners[s.info.Uses[recv.(*ast.Ident)]] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						owners[s.info.Defs[sp.Name]] = true
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							owners[s.info.Defs[name]] = true
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := s.info.Uses[id]
				switch o := obj.(type) {
				case *types.Func:
					obj = o.Origin()
				case *types.Var:
					obj = o.Origin()
				}
				if obj != nil && !owners[obj] {
					used[obj] = true
				}
				return true
			})
		}
	}
	return used
}

// interfaces returns every named interface type declared in the module or
// in a standard-library package the module imports, directly or not.
func (s *exportScan) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range s.pkgs {
		visit(pkg)
	}
	return out
}

// satisfiesInterface reports whether T or *T implements an interface that
// has a method of the given name.
func satisfiesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// exportName renders pkg.Name, or pkg.Type.Method for a method.
func exportName(obj types.Object) string {
	name := obj.Pkg().Name() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name = obj.Pkg().Name() + "." + t.(*types.Named).Obj().Name() + "." + obj.Name()
		}
	}
	return name
}
