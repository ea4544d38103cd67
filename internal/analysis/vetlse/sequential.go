package vetlse

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// baseCalls are the core.Base methods a handler may call on its receiver
// without reaching a port.
var baseCalls = map[string]bool{
	"Name": true, "Now": true, "Rand": true,
}

// startReads are the Port methods a marked template's start handler may
// call besides the drives: neither reads a signal.
var startReads = map[string]bool{"Width": true, "Name": true}

// seqPkg indexes one package's declarations for the sequential pass.
type seqPkg struct {
	fset    *token.FileSet
	ign     map[string]map[int]bool
	methods map[string]map[string]*ast.FuncDecl // receiver type -> method name -> decl
	funcs   map[string]*ast.FuncDecl            // package-level functions
	embeds  map[string][]string                 // struct type -> embedded same-package types
	out     []Finding
	seen    map[string]bool // (declaration, handler, bindings) already walked
}

// seqTemplate is one constructor that calls MarkSequential.
type seqTemplate struct {
	typ   string          // the template type, "" when the constructor does not name it in a literal
	ports map[string]bool // port field -> true for an Out port, false for an In port
}

// seqScope is one body under check: the name its receiver goes by and the
// parameters bound to the template's ports (true: Out).
type seqScope struct {
	handler string // "react" or "start"
	recv    string
	typ     string
	aliases map[string]bool
}

// runSequential checks the promise MarkSequential makes — no same-cycle
// path between the instance's ports — on every constructor that calls it.
// Method values resolve by name, as in planephase; a port field's
// direction comes from the constructor's AddInPort/AddOutPort assignment.
// Two rules:
//
//   - the registered react handler makes no call on an Out-port field,
//     neither a drive nor a read: what it acks must not follow what the
//     instance is offered back downstream;
//   - the registered start handler reads no port status or data (Width
//     and Name are allowed): what it drives is a function of state.
//
// The pass follows calls on the receiver into same-package methods
// (embedded types included) and calls that hand a port or the receiver to
// a same-package function, binding the parameter. A call it cannot follow
// — an unresolved method on the receiver, or a port or the receiver
// handed to an unknown function — is reported; `//vetlse:ignore <reason>`
// excuses it. Whether each In port's ack reads only that port is left to
// the dynamic half (WithActivityCheck and the differential).
func runSequential(fset *token.FileSet, files []*ast.File) []Finding {
	_, out := checkSequential(fset, files)
	return out
}

// checkSequential runs the pass and also returns the marked types it
// checked, sorted.
func checkSequential(fset *token.FileSet, files []*ast.File) ([]string, []Finding) {
	p := &seqPkg{fset: fset, ign: ignoreLines(fset, files),
		methods: map[string]map[string]*ast.FuncDecl{}, funcs: map[string]*ast.FuncDecl{},
		embeds: map[string][]string{}, seen: map[string]bool{}}
	for _, file := range files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				if d.Recv == nil || len(d.Recv.List) == 0 {
					p.funcs[d.Name.Name] = d
					continue
				}
				t := recvTypeName(d.Recv.List[0].Type)
				if p.methods[t] == nil {
					p.methods[t] = map[string]*ast.FuncDecl{}
				}
				p.methods[t][d.Name.Name] = d
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						if len(f.Names) == 0 {
							if id, ok := f.Type.(*ast.Ident); ok {
								p.embeds[ts.Name.Name] = append(p.embeds[ts.Name.Name], id.Name)
							}
						}
					}
				}
			}
		}
	}
	var checked []string
	for _, file := range files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv, at := markedReceiver(fd.Body)
			if recv == "" || ignored(p.ign, fset.Position(at)) {
				continue
			}
			tmpl, handlers := p.template(fd, recv)
			name := tmpl.typ
			if name == "" {
				name = fd.Name.Name
			}
			checked = append(checked, name)
			for _, h := range handlers {
				sc := seqScope{handler: h.handler, recv: recv, typ: tmpl.typ, aliases: map[string]bool{}}
				switch arg := h.arg.(type) {
				case *ast.FuncLit:
					p.walk(arg.Body, sc, tmpl, name)
				case *ast.SelectorExpr:
					if id, ok := arg.X.(*ast.Ident); ok && id.Name == recv {
						if m := p.method(tmpl.typ, arg.Sel.Name); m != nil {
							p.enter(m, sc, tmpl, name, nil)
							continue
						}
					}
					p.unresolved(arg, sc, name)
				default:
					p.unresolved(arg, sc, name)
				}
			}
		}
	}
	sort.Strings(checked)
	return checked, p.out
}

// markedReceiver returns the variable a constructor body calls
// MarkSequential on and where, or "". An ignore comment on that line
// excuses the whole template.
func markedReceiver(body *ast.BlockStmt) (recv string, at token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && len(c.Args) == 0 {
			if s, ok := c.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "MarkSequential" {
				if id, ok := s.X.(*ast.Ident); ok {
					recv, at = id.Name, c.Pos()
				}
			}
		}
		return recv == ""
	})
	return recv, at
}

type seqHandler struct {
	handler string
	arg     ast.Expr
}

// template reads a marked constructor: the template type, each port
// field's direction and the registered react and start handlers.
func (p *seqPkg) template(fd *ast.FuncDecl, recv string) (seqTemplate, []seqHandler) {
	t := seqTemplate{ports: map[string]bool{}}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 &&
		fd.Recv.List[0].Names[0].Name == recv {
		t.typ = recvTypeName(fd.Recv.List[0].Type)
	}
	var hs []seqHandler
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if id, ok := lhs.(*ast.Ident); ok && id.Name == recv && t.typ == "" {
					t.typ = literalType(n.Rhs[i])
				}
				s, ok := lhs.(*ast.SelectorExpr)
				if !ok || !isIdent(s.X, recv) {
					continue
				}
				if c, ok := n.Rhs[i].(*ast.CallExpr); ok {
					if f, ok := c.Fun.(*ast.SelectorExpr); ok && isIdent(f.X, recv) {
						switch f.Sel.Name {
						case "AddInPort":
							t.ports[s.Sel.Name] = false
						case "AddOutPort":
							t.ports[s.Sel.Name] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			s, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !isIdent(s.X, recv) || len(n.Args) != 1 {
				return true
			}
			switch s.Sel.Name {
			case "OnReact":
				hs = append(hs, seqHandler{"react", n.Args[0]})
			case "OnCycleStart":
				hs = append(hs, seqHandler{"start", n.Args[0]})
			}
		}
		return true
	})
	return t, hs
}

// literalType names T in &T{...} or T{...}.
func literalType(e ast.Expr) string {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if c, ok := e.(*ast.CompositeLit); ok {
		if id, ok := c.Type.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// method resolves a method of typ or of a type it embeds; with typ
// unknown nothing resolves, and the call is reported.
func (p *seqPkg) method(typ, name string) *ast.FuncDecl {
	if m := p.methods[typ][name]; m != nil {
		return m
	}
	for _, e := range p.embeds[typ] {
		if m := p.method(e, name); m != nil {
			return m
		}
	}
	return nil
}

// enter walks a resolved callee. The caller's arguments bind its
// parameters: a port argument makes the parameter a port alias, the
// receiver makes it the receiver.
func (p *seqPkg) enter(fd *ast.FuncDecl, caller seqScope, t seqTemplate, name string, args []ast.Expr) {
	sc := seqScope{handler: caller.handler, typ: caller.typ, aliases: map[string]bool{}}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		sc.recv = fd.Recv.List[0].Names[0].Name
		sc.typ = recvTypeName(fd.Recv.List[0].Type)
	}
	var params []string
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			params = append(params, "_")
		}
		for _, n := range f.Names {
			params = append(params, n.Name)
		}
	}
	var key strings.Builder
	fmt.Fprintf(&key, "%d %s", fd.Pos(), caller.handler)
	for i, a := range args {
		if i >= len(params) {
			break
		}
		if out, ok := caller.port(a, t); ok {
			sc.aliases[params[i]] = out
			fmt.Fprintf(&key, " %s=%v", params[i], out)
		} else if isIdent(a, caller.recv) {
			sc.recv = params[i]
			fmt.Fprintf(&key, " %s=recv", params[i])
		}
	}
	if p.seen[key.String()] {
		return
	}
	p.seen[key.String()] = true
	p.walk(fd.Body, sc, t, name)
}

// port reports whether e is one of the template's ports in this scope,
// and whether it is an Out port.
func (sc seqScope) port(e ast.Expr, t seqTemplate) (out, ok bool) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if isIdent(e.X, sc.recv) {
			out, ok = t.ports[e.Sel.Name]
		}
	case *ast.Ident:
		out, ok = sc.aliases[e.Name]
	}
	return out, ok
}

// escapes reports whether a call hands a port or the receiver on.
func (sc seqScope) escapes(args []ast.Expr, t seqTemplate) bool {
	for _, a := range args {
		if _, ok := sc.port(a, t); ok || isIdent(a, sc.recv) {
			return true
		}
	}
	return false
}

// walk checks one body against the handler's rule.
func (p *seqPkg) walk(body ast.Node, sc seqScope, t seqTemplate, name string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
					if out, ok := sc.port(n.Rhs[i], t); ok {
						sc.aliases[id.Name] = out
					}
				}
			}
		case *ast.CallExpr:
			p.call(n, sc, t, name)
		}
		return true
	})
}

func (p *seqPkg) call(c *ast.CallExpr, sc seqScope, t seqTemplate, name string) {
	switch fun := c.Fun.(type) {
	case *ast.SelectorExpr:
		if out, ok := sc.port(fun.X, t); ok {
			m := fun.Sel.Name
			switch {
			case sc.handler == "react" && out:
				p.report(c, fmt.Sprintf("%s is marked sequential, but its react handler calls %s on an Out port: "+
					"an ack must not follow what the instance offers downstream in the same cycle; drop the mark or read the Out port at cycle end",
					name, exprString(fun)))
			case sc.handler == "start" && !writeMethods[m] && !startReads[m]:
				p.report(c, fmt.Sprintf("%s is marked sequential, but its start handler reads %s: "+
					"what a marked instance drives at cycle start must be a function of its state (only drives, Width and Name are allowed)",
					name, exprString(fun)))
			}
			return
		}
		if isIdent(fun.X, sc.recv) {
			if m := p.method(sc.typ, fun.Sel.Name); m != nil {
				p.enter(m, sc, t, name, c.Args)
				return
			}
			if !baseCalls[fun.Sel.Name] {
				p.unresolved(c, sc, name)
			}
			return
		}
		if sc.escapes(c.Args, t) {
			p.unresolved(c, sc, name)
		}
	case *ast.Ident:
		if !sc.escapes(c.Args, t) {
			return
		}
		if fd := p.funcs[fun.Name]; fd != nil {
			p.enter(fd, sc, t, name, c.Args)
			return
		}
		p.unresolved(c, sc, name)
	default:
		if sc.escapes(c.Args, t) {
			p.unresolved(c, sc, name)
		}
	}
}

func (p *seqPkg) unresolved(n ast.Node, sc seqScope, name string) {
	p.report(n, fmt.Sprintf("%s is marked sequential, but its %s handler makes a call the pass cannot follow (%s): "+
		"make it a same-package method or function, or excuse the line with //vetlse:ignore <reason>",
		name, sc.handler, exprString(n)))
}

func (p *seqPkg) report(n ast.Node, msg string) {
	pos := p.fset.Position(n.Pos())
	if ignored(p.ign, pos) {
		return
	}
	for _, f := range p.out {
		if f.Pos == pos && f.Message == msg {
			return
		}
	}
	p.out = append(p.out, Finding{Pos: pos, Message: msg})
}

// exprString renders a call's callee (or a handler expression) for a
// message: selectors and identifiers in full, anything else by kind.
func exprString(n ast.Node) string {
	switch n := n.(type) {
	case *ast.CallExpr:
		return exprString(n.Fun) + "(…)"
	case *ast.SelectorExpr:
		return exprString(n.X) + "." + n.Sel.Name
	case *ast.Ident:
		return n.Name
	}
	return fmt.Sprintf("%T", n)
}
