package contango

// Surface gate: every exported name declared under internal/ must have a
// use in the module's non-test code, benchmark/ included. Code that only
// tests reach is dead weight the product carries; this test keeps it from
// coming back.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists exported names kept without a non-test use, keyed as
// package.Name or package.Type.Method, each with its reason.
var surfaceAllow = map[string]string{
	"ctree.Arena.WireCap":    "the tests' reference for TotalCap",
	"ctree.Arena.BufferCap":  "the tests' reference for TotalCap",
	"route.CheckLegalArena":  "the pass-boundary invariant hook will call it (ROADMAP item 5)",
	"service.Service.Submit": "library API: the plain submit beside SubmitWith",
}

// surfaceStdMethods are method names that satisfy standard-library
// interfaces; callers reach them through the interface, not by name.
var surfaceStdMethods = map[string]bool{
	"String": true, "GoString": true, "Error": true, "Is": true, "As": true, "Unwrap": true,
	"ServeHTTP": true, "Format": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "Push": true, "Pop": true,
}

// surfaceDecl is one exported declaration under internal/.
type surfaceDecl struct {
	key   string // package.Name or package.Type.Method
	ident *ast.Ident
	pos   token.Position
}

func TestExportedSurfaceHasProductUse(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []surfaceDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") && dir != "internal/ctree/ctreetest" {
			decls = append(decls, exportedDecls(fset, f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}

	// A name counts as used when any identifier other than its own
	// declaration spells it. Matching by name, not by type, errs toward
	// "used": a deletion this misses is never a false alarm.
	declared := make(map[*ast.Ident]bool, len(decls))
	for _, d := range decls {
		declared[d.ident] = true
	}
	uses := map[string]int{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
	}

	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		_, allow := surfaceAllow[d.key]
		allowed[d.key] = allow
		switch used := uses[d.ident.Name] > 0; {
		case used && allow:
			t.Errorf("allowlisted %s has a non-test use now; drop its allowlist entry", d.key)
		case !used && !allow:
			unused = append(unused, d.key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no non-test use; delete it or allowlist it with a reason", u)
	}
	for key := range surfaceAllow {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no declaration", key)
		}
	}
}

// exportedDecls returns f's exported top-level funcs, methods, types,
// vars and consts. Methods that satisfy standard interfaces are left out.
func exportedDecls(fset *token.FileSet, f *ast.File) []surfaceDecl {
	pkg := f.Name.Name
	var out []surfaceDecl
	add := func(key string, id *ast.Ident) {
		out = append(out, surfaceDecl{key: key, ident: id, pos: fset.Position(id.Pos())})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add(pkg+"."+d.Name.Name, d.Name)
				continue
			}
			if surfaceStdMethods[d.Name.Name] {
				continue
			}
			add(pkg+"."+receiverName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(pkg+"."+s.Name.Name, s.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(pkg+"."+id.Name, id)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName returns the type name of a method receiver expression.
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
