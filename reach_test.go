package ctxmatch_test

import (
	"go/ast"
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

// testOnlyAllowed lists the internal/ declarations that no non-test code
// references and that stay anyway, keyed "importpath.Name".
var testOnlyAllowed = map[string]bool{
	// Only internal/repository's tests read this counter across the
	// package boundary (to check that a match-any tokenizes its source
	// once); the per-request stage recorder planned in ROADMAP.md is to
	// absorb it.
	"ctxmatch/internal/match.SourceTokenizations": true,
}

// TestInternalDeclarationsReachable type-checks every non-test file of
// the module, and of the perfbench module beside it, and fails on each
// package-level func, type, var or const in internal/ that no non-test
// code references: such code is built into every binary but only tests
// need it. Delete it, or move it into a _test.go file when a test uses
// it. A declaration's references to itself, and a type's references
// from its own methods, do not count.
func TestInternalDeclarationsReachable(t *testing.T) {
	// The perfbench module's path, ctxmatch/perfbench, is this module's
	// path plus its directory, so one rule names every package.
	const module = "ctxmatch"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go tool's rule: these directories hold no packages.
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	// The standard library comes from export data: type-checking it from
	// source (the "source" importer) took 19 s instead of 3 s under -race.
	im := &sourceImporter{fset: fset, files: files, info: info,
		pkgs: map[string]*types.Package{}, std: importer.Default()}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := im.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	// own maps each checked declaration to the source ranges whose
	// references to it do not count: the declaration itself and, for a
	// type, its methods.
	type span struct{ pos, end token.Pos }
	own := map[types.Object][]span{}
	add := func(obj types.Object, n ast.Node) { own[obj] = append(own[obj], span{n.Pos(), n.End()}) }
	for _, p := range paths {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		for _, f := range files[p] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					if recv := fn.Signature().Recv(); recv != nil {
						typ := recv.Type()
						if ptr, ok := typ.(*types.Pointer); ok {
							typ = ptr.Elem()
						}
						add(typ.(*types.Named).Obj(), d)
					} else if d.Name.Name != "init" {
						add(fn, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									add(info.Defs[n], s)
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		spans, ok := own[obj]
		if !ok || used[obj] {
			continue
		}
		inside := false
		for _, s := range spans {
			if s.pos <= id.Pos() && id.Pos() < s.end {
				inside = true
				break
			}
		}
		if !inside {
			used[obj] = true
		}
	}

	decls := make([]types.Object, 0, len(own))
	for obj := range own {
		decls = append(decls, obj)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].Pos() < decls[j].Pos() })
	for _, obj := range decls {
		key := obj.Pkg().Path() + "." + obj.Name()
		switch {
		case testOnlyAllowed[key] && used[obj]:
			t.Errorf("%s: allowlisted %s now has a non-test reference; drop it from testOnlyAllowed", fset.Position(obj.Pos()), key)
		case !testOnlyAllowed[key] && !used[obj]:
			t.Errorf("%s: %s has no reference outside _test.go files", fset.Position(obj.Pos()), key)
		}
	}
	for key := range testOnlyAllowed {
		dot := strings.LastIndex(key, ".")
		if pkg := im.pkgs[key[:dot]]; pkg == nil || pkg.Scope().Lookup(key[dot+1:]) == nil {
			t.Errorf("allowlisted %s no longer exists; drop it from testOnlyAllowed", key)
		}
	}
}

// sourceImporter type-checks the module's packages from their parsed
// non-test files, recording every identifier's object in info, and
// imports everything else (the standard library) from export data.
type sourceImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	pkgs  map[string]*types.Package
	std   types.Importer
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}
