package vetlse

import (
	"fmt"
	"go/ast"
	"go/token"
)

// writeMethods are the Port methods that drive signal status. They mirror
// the operations guarded by core.(*Conn)'s write-phase check; the fused
// lane operations, which are loops of the others, are just as illegal in
// the commit phase.
var writeMethods = map[string]bool{
	"Send": true, "SendNothing": true,
	"Enable": true, "Disable": true,
	"Ack": true, "Nack": true,
	"Idle": true, "IdleLanes": true, "NackRest": true, "NackLanes": true,
}

// runPlanephase flags signal-status writes lexically reachable from an
// OnCycleEnd registration: inside a function-literal argument, or inside
// the body of a same-package function or method registered as a value
// (OnCycleEnd(s.cycleEnd)). Method values resolve by name — the checker
// has no type information — so every same-package FuncDecl sharing the
// registered name is scanned; in practice handler names are unique per
// package, and a collision can be excused with //vetlse:ignore.
func runPlanephase(fset *token.FileSet, files []*ast.File) []Finding {
	ign := ignoreLines(fset, files)
	// Index the package's function and method bodies by bare name.
	decls := map[string][]*ast.FuncDecl{}
	for _, file := range files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
			}
		}
	}
	var out []Finding
	seen := map[token.Position]bool{} // dedupe: one finding per write site
	flagWrites := func(body ast.Node) {
		ast.Inspect(body, func(inner ast.Node) bool {
			c, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			s, ok := c.Fun.(*ast.SelectorExpr)
			if !ok || !writeMethods[s.Sel.Name] {
				return true
			}
			pos := fset.Position(c.Pos())
			if ignored(ign, pos) || seen[pos] {
				return true
			}
			seen[pos] = true
			out = append(out, Finding{
				Pos:    pos,
				Method: s.Sel.Name,
				Message: fmt.Sprintf(
					"%s inside an OnCycleEnd handler: signals may be driven only during cycle-start or reactive phases; move the write to OnReact or OnCycleStart",
					s.Sel.Name),
			})
			return true
		})
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "OnCycleEnd" || len(call.Args) == 0 {
				return true
			}
			if ignored(ign, fset.Position(call.Pos())) {
				return true
			}
			switch arg := call.Args[0].(type) {
			case *ast.FuncLit:
				flagWrites(arg.Body)
			case *ast.SelectorExpr: // method value: s.cycleEnd
				for _, fd := range decls[arg.Sel.Name] {
					flagWrites(fd.Body)
				}
			case *ast.Ident: // package-level function value
				for _, fd := range decls[arg.Name] {
					flagWrites(fd.Body)
				}
			}
			return true
		})
	}
	return out
}
