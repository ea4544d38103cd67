package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"liberty/internal/analysis"
)

// TestLintCorpusGolden pins the diagnostic surface over the golden lint
// corpus: one minimal spec per code, each asserting the exact codes,
// severities and anchors the full pipeline emits — including deliberate
// co-fires (the child of a composite exporting nothing has an unconnected
// port, LSE001). The corpus is specs/lint, which lslint reads too, and
// testdata/lse003.lss: no shipped template trips LSE003, so that file
// uses the test-only ana.leaky and lints only here, in-process.
func TestLintCorpusGolden(t *testing.T) {
	type want struct {
		code  string
		sev   analysis.Severity
		where string
	}
	cases := map[string][]want{
		"lse000.lss": {{"LSE000", analysis.Error, "snk.nope"}},
		"lse001.lss": {{"LSE001", analysis.Info, "snk.in"}},
		"lse002.lss": {{"LSE002", analysis.Warning, "t1.out[0]->t2.in[0]"}},
		"lse003.lss": {
			{"LSE003", analysis.Warning, "bad.in"},
			{"LSE003", analysis.Warning, "bad.out"},
		},
		"lse005.lss": {{"LSE005", analysis.Info, "unused"}},
		"lse006.lss": {
			{"LSE001", analysis.Info, "b/s.in"},
			{"LSE006", analysis.Warning, "b"},
		},
		"lse007.lss": {
			{"LSE001", analysis.Info, "arb.in"},
			{"LSE007", analysis.Info, "arb"},
		},
	}

	paths := map[string]string{}
	var names []string
	for _, dir := range []string{filepath.Join("..", "..", "specs", "lint"), "testdata"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("corpus dir: %v", err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".lss") {
				paths[e.Name()] = filepath.Join(dir, e.Name())
				names = append(names, e.Name())
			}
		}
	}
	slices.Sort(names)
	if len(names) != len(cases) {
		t.Errorf("corpus has %d specs, goldens cover %d — add the missing golden entry", len(names), len(cases))
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			wants, ok := cases[name]
			if !ok {
				t.Fatalf("no golden entry for %s", name)
			}
			path := paths[name]
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r := analysis.LintSource(path, string(src))
			var got []string
			for _, d := range r.Diags {
				got = append(got, fmt.Sprintf("%s %s %s", d.Code, d.Severity, d.Where))
			}
			var exp []string
			for _, w := range wants {
				exp = append(exp, fmt.Sprintf("%s %s %s", w.code, w.sev, w.where))
			}
			if strings.Join(got, "\n") != strings.Join(exp, "\n") {
				t.Errorf("diagnostics mismatch\n--- want:\n%s\n--- got:\n%s",
					strings.Join(exp, "\n"), strings.Join(got, "\n"))
			}
			// Every corpus file must fire the code it is named for.
			code := "LSE" + strings.TrimSuffix(strings.TrimPrefix(name, "lse"), ".lss")
			found := false
			for _, d := range r.Diags {
				if d.Code == code {
					found = true
				}
			}
			if !found {
				t.Errorf("%s never fired its namesake code %s", name, code)
			}
		})
	}
}
