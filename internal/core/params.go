package core

import (
	"fmt"
	"sort"
)

// Params carries a module template's customization values. Beyond plain
// configuration (sizes, latencies, policies) a parameter value may be a
// function — the paper's algorithmic parameters — letting users inherit a
// template's overall behavior while adapting the specifics, without
// editing the template.
type Params map[string]any

// Int returns the named integer parameter, or def when absent. Integer-
// typed values of any width are accepted.
func (p Params) Int(name string, def int) int {
	v, ok := p[name]
	if !ok {
		return def
	}
	switch n := v.(type) {
	case int:
		return n
	case int64:
		return int(n)
	case uint64:
		return int(n)
	case float64:
		if n == float64(int(n)) {
			return int(n)
		}
	}
	panic(&ParamError{Param: name, Detail: fmt.Sprintf("expected int, got %T (%v)", v, v)})
}

// Float returns the named float parameter, or def when absent.
func (p Params) Float(name string, def float64) float64 {
	v, ok := p[name]
	if !ok {
		return def
	}
	switch n := v.(type) {
	case float64:
		return n
	case int:
		return float64(n)
	case int64:
		return float64(n)
	}
	panic(&ParamError{Param: name, Detail: fmt.Sprintf("expected float, got %T (%v)", v, v)})
}

// Bool returns the named boolean parameter, or def when absent.
func (p Params) Bool(name string, def bool) bool {
	v, ok := p[name]
	if !ok {
		return def
	}
	if b, ok := v.(bool); ok {
		return b
	}
	panic(&ParamError{Param: name, Detail: fmt.Sprintf("expected bool, got %T (%v)", v, v)})
}

// Str returns the named string parameter, or def when absent.
func (p Params) Str(name, def string) string {
	v, ok := p[name]
	if !ok {
		return def
	}
	if s, ok := v.(string); ok {
		return s
	}
	panic(&ParamError{Param: name, Detail: fmt.Sprintf("expected string, got %T (%v)", v, v)})
}

// List returns the named list parameter, or nil when absent.
func (p Params) List(name string) []any {
	v, ok := p[name]
	if !ok {
		return nil
	}
	if l, ok := v.([]any); ok {
		return l
	}
	panic(&ParamError{Param: name, Detail: fmt.Sprintf("expected list, got %T (%v)", v, v)})
}

// Fn returns the named algorithmic parameter as fn's type T. The value may
// be a T directly, or a string naming a function registered with
// RegisterFn. When absent, def is returned (def may be nil).
func Fn[T any](p Params, name string, def T) T {
	v, ok := p[name]
	if !ok {
		return def
	}
	if s, isName := v.(string); isName {
		r, ok := fnRegistry.Load(s)
		if !ok {
			panic(&ParamError{Param: name, Detail: fmt.Sprintf("no registered function %q", s)})
		}
		v = r
	}
	f, ok := v.(T)
	if !ok {
		panic(&ParamError{Param: name, Detail: fmt.Sprintf("expected %T, got %T", def, v)})
	}
	return f
}

// Names returns the parameter names in sorted order.
func (p Params) Names() []string {
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
