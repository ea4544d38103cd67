package core

import (
	"sort"
	"sync"
)

// BuildFn constructs a module instance. Constructors for hierarchical
// templates use the Builder to instantiate and wire sub-instances; leaf
// templates typically ignore it.
type BuildFn func(b *Builder, name string, p Params) (Instance, error)

// Template is a reusable, customizable module description registered under
// a stable name (e.g. "pcl.queue"). Instantiating a template with Params
// yields a customized Instance.
type Template struct {
	// Name is the registry key, conventionally "<library>.<module>".
	Name string
	// Doc is a one-line description surfaced by tooling.
	Doc string
	// Build constructs an instance of the template.
	Build BuildFn
}

// Registry maps template names to templates. The zero value is unusable;
// use NewRegistry. Registries are safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*Template
}

// NewRegistry returns an empty template registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]*Template)} }

// Register adds a template. Registering a duplicate name is a programming
// error and panics.
func (r *Registry) Register(t *Template) {
	if t == nil || t.Name == "" || t.Build == nil {
		panic(&BuildError{Op: "register template", Where: "?", Detail: "template needs Name and Build"})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[t.Name]; dup {
		panic(&BuildError{Op: "register template", Where: t.Name, Detail: "duplicate template name"})
	}
	r.m[t.Name] = t
}

// Lookup returns the named template.
func (r *Registry) Lookup(name string) (*Template, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.m[name]
	return t, ok
}

// Names returns all registered template names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultRegistry is the process-wide registry the component libraries
// register into from their init functions.
var DefaultRegistry = NewRegistry()

// Register adds a template to DefaultRegistry.
func Register(t *Template) { DefaultRegistry.Register(t) }

// fnRegistry holds named algorithmic-parameter functions so textual
// specifications (LSS) can reference Go functions by name.
var fnRegistry sync.Map // string -> any

// RegisterFn publishes fn under name for use as an algorithmic parameter
// value in textual specifications. Duplicate registration panics.
func RegisterFn(name string, fn any) {
	if name == "" || fn == nil {
		panic(&BuildError{Op: "register fn", Where: name, Detail: "need name and fn"})
	}
	if _, dup := fnRegistry.LoadOrStore(name, fn); dup {
		panic(&BuildError{Op: "register fn", Where: name, Detail: "duplicate function name"})
	}
}
