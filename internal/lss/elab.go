package lss

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"

	core "liberty/internal/core"
)

// ElabError reports a semantic failure during elaboration. File is the
// spec file name when the input came through ParseFile/LoadFile.
type ElabError struct {
	File   string
	Line   int
	Detail string
}

func (e *ElabError) Error() string {
	file := e.File
	if file == "" {
		file = "lss"
	}
	return fmt.Sprintf("%s:%d: %s", file, e.Line, e.Detail)
}

// scope is one lexical elaboration scope.
type scope struct {
	parent  *scope
	vars    map[string]any
	insts   map[string]any // core.Instance or []core.Instance
	prefix  string
	exports *core.Composite // non-nil inside a module body
}

// child opens a block scope: fresh variable bindings (loop variables,
// lets) but the same instance namespace — like an HDL generate block,
// instances declared under for/if remain visible to the enclosing scope.
func (s *scope) child() *scope {
	return &scope{parent: s, vars: map[string]any{}, insts: s.insts,
		prefix: s.prefix, exports: s.exports}
}

func (s *scope) lookupVar(name string) (any, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// lookupInst walks the scope chain; module bodies are rooted in their own
// chain (no parent), so they cannot see instances outside the module.
func (s *scope) lookupInst(name string) (any, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.insts[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Elaborator turns parsed specifications into netlists on a Builder —
// the "Liberty Simulator Constructor" of Figure 1, interpreting module
// templates from the registry and hierarchical templates defined in LSS
// itself.
type Elaborator struct {
	b         *core.Builder
	mods      map[string]*ModuleDef
	overrides map[string]any
	file      string // spec file name for errors and position stamping
}

// errf reports a semantic failure at the given spec line.
func (e *Elaborator) errf(line int, format string, args ...any) error {
	return &ElabError{File: e.file, Line: line, Detail: fmt.Sprintf(format, args...)}
}

// at moves the builder's position cursor to the given spec line, so
// instances, connections and build errors created while translating the
// current statement point back into the spec.
func (e *Elaborator) at(line int) {
	e.b.At(core.Pos{File: e.file, Line: line})
}

// wrapErr attaches a spec position to a builder error. A *BuildError the
// position cursor already stamped passes through untouched — wrapping it
// again would print the file:line prefix twice.
func (e *Elaborator) wrapErr(line int, err error) error {
	var be *core.BuildError
	if errors.As(err, &be) && !be.Pos.IsZero() {
		return err
	}
	return e.errf(line, "%v", err)
}

// NewElaborator wraps a builder.
func NewElaborator(b *core.Builder) *Elaborator {
	return &Elaborator{b: b, mods: make(map[string]*ModuleDef)}
}

// Elaborate processes a parsed file, creating instances and connections.
func (e *Elaborator) Elaborate(f *File) error { return e.ElaborateWith(f, nil) }

// ElaborateWith is Elaborate with predefined top-level bindings, which
// shadow same-named `let` statements — the mechanism behind command-line
// parameter overrides (lsc -D name=value). Values may be any Go integer
// or float kind, a string or a bool; anything else is an error naming
// the binding.
func (e *Elaborator) ElaborateWith(f *File, vars map[string]any) error {
	top := &scope{vars: map[string]any{}, insts: map[string]any{}}
	for k, v := range vars {
		nv, err := normalizeDefine(k, v)
		if err != nil {
			return err
		}
		top.vars[k] = nv
	}
	e.overrides = vars
	e.file = f.Name
	defer e.b.At(core.Pos{}) // don't leak the cursor past elaboration
	return e.exec(f.Stmts, top)
}

// normalizeDefine converts a caller-supplied binding to the evaluator's
// value kinds — int64, float64, string, bool — so that a Go int written
// through lse.CompileLSS does arithmetic like a literal would.
func normalizeDefine(name string, v any) (any, error) {
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rv.Int(), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if u := rv.Uint(); u <= math.MaxInt64 {
			return int64(u), nil
		}
	case reflect.Float32, reflect.Float64:
		return rv.Float(), nil
	case reflect.String:
		return rv.String(), nil
	case reflect.Bool:
		return rv.Bool(), nil
	}
	return nil, fmt.Errorf("lss: define %q: unsupported value %v of type %T (want an integer, float, string or bool)", name, v, v)
}

// Compile parses src once and compiles it into a shared core.Program
// whose assembly recipe re-elaborates the parsed spec — so every
// Program.NewSim after the first (which is the netlist the compile
// elaborated) stamps a fresh instance graph without re-parsing,
// re-levelizing or re-electing lanes. vars predefines top-level bindings
// that shadow same-named `let` statements (the mechanism behind lsc -D
// overrides); pass nil for none.
func Compile(src string, vars map[string]any, opts ...core.BuildOption) (*core.Program, error) {
	return CompileFile("", src, vars, opts...)
}

// CompileFile is Compile with a source file name: errors, build
// diagnostics and static-analysis findings then point at name:line
// instead of lss:line.
func CompileFile(name, src string, vars map[string]any, opts ...core.BuildOption) (*core.Program, error) {
	f, err := ParseFile(name, src)
	if err != nil {
		return nil, err
	}
	// Elaboration walks the parsed AST read-only, so the closure is a
	// deterministic recipe: every re-stamped session re-elaborates the
	// same tree.
	assemble := func(b *core.Builder) error {
		return NewElaborator(b).ElaborateWith(f, vars)
	}
	return core.Compile(assemble, opts...)
}

// Load parses src, elaborates it onto a fresh builder configured by
// opts, and constructs the simulator — the Figure 1 pipeline in one
// call and one elaboration: the session is the compile's own netlist.
// The returned session is bound to a fresh compiled Program
// (Sim.Program), so further sessions can be stamped from it without
// rebuilding. vars predefines top-level bindings that shadow same-named
// `let` statements (the mechanism behind lsc -D overrides); pass nil for
// none.
func Load(src string, vars map[string]any, opts ...core.BuildOption) (*core.Sim, error) {
	return LoadFile("", src, vars, opts...)
}

// LoadFile is Load with a source file name: errors, build diagnostics and
// static-analysis findings then point at name:line instead of lss:line.
func LoadFile(name, src string, vars map[string]any, opts ...core.BuildOption) (*core.Sim, error) {
	p, err := CompileFile(name, src, vars, opts...)
	if err != nil {
		return nil, err
	}
	return p.NewSim()
}

func (e *Elaborator) exec(stmts []Stmt, sc *scope) error {
	for _, s := range stmts {
		if err := e.execStmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (e *Elaborator) execStmt(s Stmt, sc *scope) error {
	switch st := s.(type) {
	case *ModuleDef:
		if _, dup := e.mods[st.Name]; dup {
			return e.errf(st.Line, "module %q defined twice", st.Name)
		}
		e.mods[st.Name] = st
		return nil
	case *LetStmt:
		if _, over := e.overrides[st.Name]; over && sc.parent == nil {
			return nil // command-line override wins over the spec's value
		}
		v, err := e.eval(st.Expr, sc)
		if err != nil {
			return err
		}
		sc.vars[st.Name] = v
		return nil
	case *ForStmt:
		from, err := e.evalInt(st.From, sc, st.Line)
		if err != nil {
			return err
		}
		to, err := e.evalInt(st.To, sc, st.Line)
		if err != nil {
			return err
		}
		for i := from; i <= to; i++ {
			body := sc.child()
			body.vars[st.Var] = i
			if err := e.exec(st.Body, body); err != nil {
				return err
			}
		}
		return nil
	case *IfStmt:
		cond, err := e.eval(st.Cond, sc)
		if err != nil {
			return err
		}
		cb, ok := cond.(bool)
		if !ok {
			return e.errf(st.Line, "if condition is %T, want bool", cond)
		}
		if cb {
			return e.exec(st.Then, sc.child())
		}
		return e.exec(st.Else, sc.child())
	case *InstanceDecl:
		return e.execInstance(st, sc)
	case *ConnectStmt:
		return e.execConnect(st, sc)
	case *ExportStmt:
		return e.execExport(st, sc)
	}
	return fmt.Errorf("lss: unknown statement %T", s)
}

func (e *Elaborator) execInstance(st *InstanceDecl, sc *scope) error {
	e.at(st.Line)
	if _, dup := sc.insts[st.Name]; dup {
		return e.errf(st.Line, "instance %q declared twice in this scope", st.Name)
	}
	evalArgs := func(argScope *scope) (core.Params, error) {
		params := core.Params{}
		for _, a := range st.Args {
			v, err := e.eval(a.Value, argScope)
			if err != nil {
				return nil, err
			}
			params[a.Name] = v
		}
		return params, nil
	}
	if st.Count == nil {
		params, err := evalArgs(sc)
		if err != nil {
			return err
		}
		inst, err := e.instantiate(st, sc.prefix+st.Name, params, st.Line)
		if err != nil {
			return err
		}
		sc.insts[st.Name] = inst
		return nil
	}
	n, err := e.evalInt(st.Count, sc, st.Line)
	if err != nil {
		return err
	}
	if n < 0 {
		return e.errf(st.Line, "negative instance count %d", n)
	}
	arr := make([]core.Instance, n)
	for i := int64(0); i < n; i++ {
		// Array elements evaluate their arguments with the reserved
		// variable `idx` bound to the element index, so per-element
		// customization (`node = idx`) works.
		elemScope := sc.child()
		elemScope.vars["idx"] = i
		params, err := evalArgs(elemScope)
		if err != nil {
			return err
		}
		inst, err := e.instantiate(st, fmt.Sprintf("%s%s[%d]", sc.prefix, st.Name, i), params, st.Line)
		if err != nil {
			return err
		}
		arr[i] = inst
	}
	sc.insts[st.Name] = arr
	return nil
}

func (e *Elaborator) instantiate(st *InstanceDecl, fullName string, params core.Params, line int) (inst core.Instance, err error) {
	if def, ok := e.mods[st.Template]; ok {
		return e.instantiateModule(def, fullName, params, line)
	}
	// Template constructors validate parameters by panicking with a
	// *ParamError (see core.Params); recover it into a positioned
	// elaboration error so a typo'd spec reports file:line instead of
	// crashing the constructor.
	defer func() {
		if p := recover(); p != nil {
			pe, ok := p.(*core.ParamError)
			if !ok {
				panic(p)
			}
			inst, err = nil, e.errf(line, "template %s: parameter %q: %s", st.Template, pe.Param, pe.Detail)
		}
	}()
	inst, err = e.b.Instantiate(st.Template, fullName, params)
	if err != nil {
		return nil, e.wrapErr(line, err)
	}
	return inst, nil
}

// instantiateModule elaborates an LSS-defined hierarchical template.
func (e *Elaborator) instantiateModule(def *ModuleDef, fullName string, args core.Params, line int) (core.Instance, error) {
	comp := &core.Composite{}
	comp.Init(fullName, comp)
	body := &scope{
		vars:    map[string]any{},
		insts:   map[string]any{},
		prefix:  fullName + "/",
		exports: comp,
	}
	declared := map[string]bool{}
	for _, p := range def.Params {
		declared[p.Name] = true
		if v, ok := args[p.Name]; ok {
			body.vars[p.Name] = v
			continue
		}
		if p.Default == nil {
			return nil, e.errf(line, "module %s: required parameter %q missing", def.Name, p.Name)
		}
		v, err := e.eval(p.Default, body)
		if err != nil {
			return nil, err
		}
		body.vars[p.Name] = v
	}
	for name := range args {
		if !declared[name] {
			return nil, e.errf(line, "module %s has no parameter %q", def.Name, name)
		}
	}
	if err := e.exec(def.Body, body); err != nil {
		return nil, err
	}
	for name := range body.insts {
		switch v := body.insts[name].(type) {
		case core.Instance:
			comp.AddChild(v)
		case []core.Instance:
			for _, inst := range v {
				comp.AddChild(inst)
			}
		}
	}
	e.at(line) // body statements moved the cursor; the composite belongs to the decl
	e.b.Add(comp)
	return comp, nil
}

func (e *Elaborator) resolveRef(r PortRef, sc *scope) (core.Instance, string, error) {
	entry, ok := sc.lookupInst(r.Inst)
	if !ok {
		return nil, "", e.errf(r.Line, "unknown instance %q", r.Inst)
	}
	var inst core.Instance
	switch v := entry.(type) {
	case core.Instance:
		if r.InstIdx != nil {
			return nil, "", e.errf(r.Line, "instance %q is not an array", r.Inst)
		}
		inst = v
	case []core.Instance:
		if r.InstIdx == nil {
			return nil, "", e.errf(r.Line, "instance array %q needs an index", r.Inst)
		}
		i, err := e.evalInt(r.InstIdx, sc, r.Line)
		if err != nil {
			return nil, "", err
		}
		if i < 0 || int(i) >= len(v) {
			return nil, "", e.errf(r.Line, "index %d out of range for %q[%d]", i, r.Inst, len(v))
		}
		inst = v[i]
	}
	port := r.Port
	if r.PortIdx != nil {
		i, err := e.evalInt(r.PortIdx, sc, r.Line)
		if err != nil {
			return nil, "", err
		}
		port += strconv.FormatInt(i, 10)
	}
	return inst, port, nil
}

func (e *Elaborator) execConnect(st *ConnectStmt, sc *scope) error {
	e.at(st.Line)
	srcInst, srcPort, err := e.resolveRef(st.Src, sc)
	if err != nil {
		return err
	}
	dstInst, dstPort, err := e.resolveRef(st.Dst, sc)
	if err != nil {
		return err
	}
	if err := e.b.Connect(srcInst, srcPort, dstInst, dstPort); err != nil {
		return e.wrapErr(st.Line, err)
	}
	return nil
}

func (e *Elaborator) execExport(st *ExportStmt, sc *scope) error {
	e.at(st.Line)
	if sc.exports == nil {
		return e.errf(st.Line, "export outside a module definition")
	}
	inst, portName, err := e.resolveRef(st.Ref, sc)
	if err != nil {
		return err
	}
	p, err := core.PortOf(inst, portName)
	if err != nil {
		return e.wrapErr(st.Line, err)
	}
	sc.exports.Export(st.Name, p)
	return nil
}

func (e *Elaborator) evalInt(x Expr, sc *scope, line int) (int64, error) {
	v, err := e.eval(x, sc)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, e.errf(line, "expected integer, got %T (%v)", v, v)
	}
	return n, nil
}

func (e *Elaborator) eval(x Expr, sc *scope) (any, error) {
	switch ex := x.(type) {
	case *IntLit:
		return ex.Val, nil
	case *FloatLit:
		return ex.Val, nil
	case *StrLit:
		return ex.Val, nil
	case *BoolLit:
		return ex.Val, nil
	case *VarRef:
		if v, ok := sc.lookupVar(ex.Name); ok {
			return v, nil
		}
		return nil, e.errf(ex.Line, "undefined name %q", ex.Name)
	case *Neg:
		v, err := e.eval(ex.E, sc)
		if err != nil {
			return nil, err
		}
		switch n := v.(type) {
		case int64:
			return -n, nil
		case float64:
			return -n, nil
		}
		return nil, fmt.Errorf("lss: cannot negate %T", v)
	case *BinOp:
		return e.evalBin(ex, sc)
	}
	return nil, fmt.Errorf("lss: unknown expression %T", x)
}

func (e *Elaborator) evalBin(op *BinOp, sc *scope) (any, error) {
	l, err := e.eval(op.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := e.eval(op.R, sc)
	if err != nil {
		return nil, err
	}
	// String concatenation and equality.
	if ls, ok := l.(string); ok {
		rs, ok := r.(string)
		if !ok {
			return nil, e.errf(op.Line, "mixed string/%T operands", r)
		}
		switch op.Op {
		case "+":
			return ls + rs, nil
		case "==":
			return ls == rs, nil
		case "!=":
			return ls != rs, nil
		}
		return nil, e.errf(op.Line, "operator %q undefined on strings", op.Op)
	}
	if lb, ok := l.(bool); ok {
		rb, ok := r.(bool)
		if !ok {
			return nil, e.errf(op.Line, "mixed bool/%T operands", r)
		}
		switch op.Op {
		case "==":
			return lb == rb, nil
		case "!=":
			return lb != rb, nil
		}
		return nil, e.errf(op.Line, "operator %q undefined on booleans", op.Op)
	}
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		switch op.Op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, e.errf(op.Line, "division by zero")
			}
			return li / ri, nil
		case "%":
			if ri == 0 {
				return nil, e.errf(op.Line, "division by zero")
			}
			return li % ri, nil
		case "==":
			return li == ri, nil
		case "!=":
			return li != ri, nil
		case "<":
			return li < ri, nil
		case "<=":
			return li <= ri, nil
		case ">":
			return li > ri, nil
		case ">=":
			return li >= ri, nil
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return nil, e.errf(op.Line, "operator %q undefined on %T and %T", op.Op, l, r)
	}
	switch op.Op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, e.errf(op.Line, "division by zero")
		}
		return lf / rf, nil
	case "==":
		return lf == rf, nil
	case "!=":
		return lf != rf, nil
	case "<":
		return lf < rf, nil
	case "<=":
		return lf <= rf, nil
	case ">":
		return lf > rf, nil
	case ">=":
		return lf >= rf, nil
	}
	return nil, e.errf(op.Line, "operator %q undefined on floats", op.Op)
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}
