package liberty_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameLiveIdentifiers: every back-quoted qualified identifier
// README.md and DESIGN.md name in one of the repository's own packages —
// `pkg.Name` or `pkg.Type.Member` — exists in that package's source. A
// member resolves through the type's methods, fields, embedded types and
// aliases; the member of a package-level variable or constant is not
// checked (its type needs type checking).
func TestDocsNameLiveIdentifiers(t *testing.T) {
	decls := repoDecls(t)
	const probe = "`lse.NoSuchName`, `lse.Base.Checkpoint` and `core.Sim.NoSuchMethod`"
	if dead := strings.Join(deadIdentifiers(decls, probe), ","); dead != "lse.NoSuchName,core.Sim.NoSuchMethod" {
		t.Fatalf("checker found [%s] in %q, want the two missing identifiers", dead, probe)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range deadIdentifiers(decls, string(src)) {
			t.Errorf("%s names `%s`, which does not exist", doc, id)
		}
	}
}

// qualifiedRef is a `pkg.Name` or `pkg.Name.Member` inside a code span.
var (
	codeSpan     = regexp.MustCompile("`([^`\n]+)`")
	qualifiedRef = regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
)

// deadIdentifiers returns the qualified identifiers of the repository's
// packages that text's code spans name and decls does not declare.
func deadIdentifiers(decls map[string]*pkgDecls, text string) []string {
	var dead []string
	for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
		for _, m := range qualifiedRef.FindAllStringSubmatch(span[1], -1) {
			pkg, name, member := decls[m[1]], m[2], m[3]
			switch {
			case pkg == nil: // not one of ours: stdlib, a stat or file name
			case !pkg.names[name]:
				dead = append(dead, m[1]+"."+name)
			case member != "" && pkg.types[name] != nil && !hasMember(decls, m[1], name, member, 0):
				dead = append(dead, m[1]+"."+name+"."+member)
			}
		}
	}
	return dead
}

// pkgDecls is one package's top-level names and, per type, what a
// selector on it can reach.
type pkgDecls struct {
	names map[string]bool
	types map[string]*typeDecl
}

type typeDecl struct {
	members map[string]bool // methods, fields, interface methods
	via     [][2]string     // embedded types and the alias target, as {pkg, type}
}

func (d *pkgDecls) typ(name string) *typeDecl {
	if d.types[name] == nil {
		d.types[name] = &typeDecl{members: map[string]bool{}}
	}
	return d.types[name]
}

// hasMember reports whether pkg.typ.member resolves, following embedded
// types and aliases a few levels deep.
func hasMember(decls map[string]*pkgDecls, pkg, typ, member string, depth int) bool {
	d := decls[pkg]
	if d == nil || d.types[typ] == nil || depth > 4 {
		return false
	}
	td := d.types[typ]
	if td.members[member] {
		return true
	}
	for _, v := range td.via {
		if hasMember(decls, v[0], v[1], member, depth+1) {
			return true
		}
	}
	return false
}

// repoDecls parses the non-test Go source of every package in the module
// (commands and examples, package main, excluded).
func repoDecls(t *testing.T) map[string]*pkgDecls {
	t.Helper()
	decls := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "bench") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name != "main" {
			collect(decls, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

func collect(decls map[string]*pkgDecls, f *ast.File) {
	pkg := f.Name.Name
	d := decls[pkg]
	if d == nil {
		d = &pkgDecls{names: map[string]bool{}, types: map[string]*typeDecl{}}
		decls[pkg] = d
	}
	// imports maps a file's import names to package names, which in this
	// module are the last path element.
	imports := map[string]string{}
	for _, im := range f.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		name := p[strings.LastIndex(p, "/")+1:]
		if im.Name != nil {
			imports[im.Name.Name] = name
		} else {
			imports[name] = name
		}
	}
	ref := func(e ast.Expr) (string, string, bool) {
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		switch e := e.(type) {
		case *ast.Ident:
			return pkg, e.Name, true
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok {
				return imports[x.Name], e.Sel.Name, true
			}
		}
		return "", "", false
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.names[decl.Name.Name] = true
				continue
			}
			if _, typ, ok := ref(decl.Recv.List[0].Type); ok {
				d.typ(typ).members[decl.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.names[n.Name] = true
					}
				case *ast.TypeSpec:
					d.names[spec.Name.Name] = true
					td := d.typ(spec.Name.Name)
					if spec.Assign.IsValid() {
						if p, typ, ok := ref(spec.Type); ok {
							td.via = append(td.via, [2]string{p, typ})
						}
						continue
					}
					var fields *ast.FieldList
					switch ty := spec.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						continue
					}
					for _, field := range fields.List {
						for _, n := range field.Names {
							td.members[n.Name] = true
						}
						if len(field.Names) == 0 {
							if p, typ, ok := ref(field.Type); ok {
								td.members[typ] = true
								td.via = append(td.via, [2]string{p, typ})
							}
						}
					}
				}
			}
		}
	}
}
