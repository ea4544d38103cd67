package core_test

import (
	"fmt"
	"strings"
	"testing"

	core "liberty/internal/core"
)

// exportingComposite wraps one source per export and publishes its out
// port under alias(i); n past a handful of ports exercises the indexed
// lookup a large composite uses.
func exportingComposite(n int, alias func(i int) string) (*core.Composite, []*source) {
	c := &core.Composite{}
	c.Init("c", c)
	var kids []*source
	for i := 0; i < n; i++ {
		s := newSource(core.Sub("c", fmt.Sprint("s", i)))
		c.AddChild(s)
		c.Export(alias(i), s.PortByName("out"))
		kids = append(kids, s)
	}
	return c, kids
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s accepted", what)
		}
	}()
	fn()
}

// TestPortNamesSmallAndLarge: duplicate declarations and exports panic,
// and an export resolves under its alias, never under the child port's
// own name — both while an instance scans its names and once it indexes
// them.
func TestPortNamesSmallAndLarge(t *testing.T) {
	for _, n := range []int{3, 40} {
		t.Run(fmt.Sprint(n, "exports"), func(t *testing.T) {
			alias := func(i int) string { return fmt.Sprint("x", i) }
			c, kids := exportingComposite(n, alias)
			for i, k := range kids {
				p, err := core.PortOf(c, alias(i))
				if err != nil || p != k.PortByName("out") {
					t.Fatalf("PortOf(%s) = %v, %v; want %s's out port", alias(i), p, err, k.Name())
				}
			}
			if p, err := core.PortOf(c, "out"); err == nil {
				t.Fatalf("the child's own port name resolved on the composite: %v", p)
			}
			mustPanic(t, "duplicate export", func() { c.Export(alias(n-1), kids[0].PortByName("out")) })
			mustPanic(t, "declaring a port under an exported name", func() { c.AddInPort(alias(0)) })
			own := c.AddInPort("own")
			if c.PortByName("own") != own {
				t.Fatal("a composite's own port does not resolve")
			}
			mustPanic(t, "exporting under a declared name", func() { c.Export("own", kids[0].PortByName("out")) })
			if got := c.ExportNames(); len(got) != n+1 {
				t.Fatalf("ExportNames has %d names, want %d", len(got), n+1)
			}
		})
	}
	m := newRegister("r")
	mustPanic(t, "duplicate AddInPort", func() { m.AddInPort("in") })
	mustPanic(t, "an in port named like an out port", func() { m.AddInPort("out") })
}

// TestPortOfErrorListsSortedNames: the error for an unknown port names
// every port the instance has, sorted, whatever the declaration order.
func TestPortOfErrorListsSortedNames(t *testing.T) {
	for _, n := range []int{3, 40} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("p%02d", n-1-i) // declared in descending order
		}
		c, _ := exportingComposite(n, func(i int) string { return names[i] })
		_, err := core.PortOf(c, "missing")
		if err == nil {
			t.Fatal("PortOf found a port that does not exist")
		}
		sorted := append([]string(nil), names...)
		for i, j := 0, len(sorted)-1; i < j; i, j = i+1, j-1 {
			sorted[i], sorted[j] = sorted[j], sorted[i]
		}
		if want := fmt.Sprintf("instance has %v", sorted); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %q", err, want)
		}
	}
}
