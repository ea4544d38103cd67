package analysis_test

import (
	"strings"
	"testing"

	"liberty/internal/analysis"
)

// TestSelectPassesRetiredNames: retired pass slugs and codes are unknown
// names — an error that lists the valid ones, never a silent empty
// selection — and the live codes each resolve.
func TestSelectPassesRetiredNames(t *testing.T) {
	names := analysis.PassNames()
	valid := strings.Join(names, ", ")
	for _, name := range []string{
		"deadcode", "payload", "constspill", "consthandshake", "flowdead", "stall", "foldable",
		"LSE004", "LSE008", "LSE009", "LSE010", "LSE011", "LSE012", "LSE013",
	} {
		sel, err := analysis.SelectPasses([]string{name})
		if err == nil {
			t.Errorf("SelectPasses(%q) = %v, want an unknown-pass error", name, sel)
			continue
		}
		if !strings.Contains(err.Error(), valid) {
			t.Errorf("SelectPasses(%q) error %q does not list the valid passes %q", name, err, valid)
		}
		for _, n := range names {
			if n == strings.ToLower(name) {
				t.Errorf("PassNames() contains retired name %q", n)
			}
		}
	}
	for _, code := range []string{"LSE001", "LSE002", "LSE003", "LSE005", "LSE006", "LSE007"} {
		if _, err := analysis.SelectPasses([]string{code}); err != nil {
			t.Errorf("SelectPasses(%q): %v", code, err)
		}
	}
	// LSE000 is no pass to select: a spec that fails to build reports it
	// whatever the selection.
	sel, err := analysis.SelectPasses([]string{"LSE001"})
	if err != nil {
		t.Fatal(err)
	}
	if r := sel.Lint("bad.lss", "instance x : nosuch.thing();\n", nil); len(r.Diags) == 0 || r.Diags[0].Code != "LSE000" {
		t.Errorf("broken spec under -passes LSE001 reported %v, want LSE000", r.Diags)
	}
}
