// Package vetlse statically checks Go module templates for violations of
// the engine's contracts that only manifest at simulation time. It is a
// small multichecker built on go/ast alone (no type information, no
// dependency on the external go/analysis framework), with two passes:
//
//   - planephase flags signal-status writes (Send, SendNothing, Enable,
//     Disable, Ack, Nack and the fused Idle, IdleLanes, NackRest,
//     NackLanes) lexically reachable from an
//     OnCycleEnd commit handler — a guaranteed *core.ContractError at
//     runtime. Both function literals and registered method values
//     (OnCycleEnd(s.cycleEnd)) are checked.
//
//   - sequential checks the promise of Base.MarkSequential on every
//     constructor that makes it: the react handler calls nothing on an
//     Out port, and the start handler reads no port (only drives, Width
//     and Name). It is the static half of the check; WithActivityCheck and
//     the engine-vs-reference differential are the dynamic half.
//
// The checks are syntactic, so an unrelated method that shares a name can
// be excused with a `//vetlse:ignore` comment on the offending line.
//
// cmd/vetlse wraps the multichecker both as a `go vet -vettool` backend
// and as a standalone walker.
package vetlse

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one contract violation.
type Finding struct {
	Pos     token.Position
	Check   string // the analyzer that produced it ("planephase", "sequential")
	Method  string // planephase: the signal-write method called
	Message string
}

func (f Finding) String() string {
	if f.Check == "" {
		return fmt.Sprintf("%s: %s", f.Pos, f.Message)
	}
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Message)
}

// Analyzer is one named check over the files of a single package. Checks
// receive every file of the package together so they can resolve
// same-package references (a method value registered in one file, the
// method body in another).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(fset *token.FileSet, files []*ast.File) []Finding
}

// analyzers is the registry, in execution order.
var analyzers = []*Analyzer{
	{
		Name: "planephase",
		Doc:  "signal writes reachable from OnCycleEnd commit handlers (guaranteed ContractError at runtime)",
		Run:  runPlanephase,
	},
	{
		Name: "sequential",
		Doc:  "MarkSequential templates whose react handler calls an Out port or whose start handler reads a port",
		Run:  runSequential,
	},
}

// Analyzers returns the registered checks in execution order.
func Analyzers() []*Analyzer { return analyzers }

// CheckFile runs every analyzer over one parsed file (a single-file
// package unit). The file must have been parsed with
// parser.ParseComments for `//vetlse:ignore` suppression to work.
func CheckFile(fset *token.FileSet, file *ast.File) []Finding {
	return checkGroup(fset, []*ast.File{file})
}

// CheckFiles parses and checks the named Go source files with a shared
// FileSet. Files are grouped by directory — the closest syntactic
// approximation of a package — so cross-file resolution stays inside one
// package and never pairs declarations across unrelated packages. A file
// that fails to parse contributes an error finding rather than aborting
// the run — vet keeps going past broken files.
func CheckFiles(paths []string) []Finding {
	fset := token.NewFileSet()
	var out []Finding
	groups := map[string][]*ast.File{}
	var dirs []string
	for _, path := range paths {
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			out = append(out, Finding{
				Pos:     token.Position{Filename: path},
				Message: fmt.Sprintf("parse error: %v", err),
			})
			continue
		}
		dir := filepath.Dir(path)
		if _, seen := groups[dir]; !seen {
			dirs = append(dirs, dir)
		}
		groups[dir] = append(groups[dir], file)
	}
	for _, dir := range dirs {
		out = append(out, checkGroup(fset, groups[dir])...)
	}
	return out
}

func checkGroup(fset *token.FileSet, files []*ast.File) []Finding {
	var out []Finding
	for _, a := range analyzers {
		fs := a.Run(fset, files)
		for i := range fs {
			fs[i].Check = a.Name
		}
		out = append(out, fs...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// ignoreLines collects, per file, the lines carrying a `//vetlse:ignore`
// comment; findings anchored there are suppressed.
func ignoreLines(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	lines := map[string]map[int]bool{}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "vetlse:ignore") {
					pos := fset.Position(c.Pos())
					if lines[pos.Filename] == nil {
						lines[pos.Filename] = map[int]bool{}
					}
					lines[pos.Filename][pos.Line] = true
				}
			}
		}
	}
	return lines
}

func ignored(ign map[string]map[int]bool, pos token.Position) bool {
	return ign[pos.Filename][pos.Line]
}

// recvTypeName names a method receiver's type, with or without the star;
// "" for anything else.
func recvTypeName(t ast.Expr) string {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
