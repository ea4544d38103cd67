// Command lslint statically analyzes Liberty Simulator Specifications:
// it parses, elaborates and builds each spec against the registered
// component libraries, runs every analysis pass (unconnected ports,
// combinational cycles, handshake-contract misuse, parameter hygiene,
// hierarchy and activity checks — see internal/analysis), and
// reports diagnostics with stable LSE codes and spec positions.
//
// Usage:
//
//	lslint [flags] file.lss dir/ ...
//
// Directories are walked recursively for .lss files. Flags:
//
//	-json          emit the report as JSON instead of text
//	-sarif         emit the report as SARIF 2.1.0 (for code-host ingestion)
//	-D name=value  predefine a top-level binding (repeatable), parsed as
//	               lsc -D is (lse.Defines)
//	-passes a,b    run only the named passes (slugs or LSE codes); an
//	               unknown name exits 3 with the valid list
//	-list-passes   list the registered analysis passes and exit
//
// Diagnostics anchored to a line carrying (or directly below) an
// `# lse:ignore [CODE,...]` comment are suppressed.
//
// The exit code is the maximum severity found: 0 info/clean, 1 warning,
// 2 error; 3 reports an operational failure (unreadable input). A
// warning is also what fails a build under strict analysis (lsc -strict
// warning, lse.WithStrictAnalysis); an error is a spec that does not
// build at all (LSE000).
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"liberty/internal/analysis"
	"liberty/lse" // its import registers the templates specs elaborate against
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	sarifOut := flag.Bool("sarif", false, "emit the report as SARIF 2.1.0")
	passNames := flag.String("passes", "", "comma-separated pass names (slugs or LSE codes) to run; default all")
	listPasses := flag.Bool("list-passes", false, "list the registered analysis passes and exit")
	defs := lse.Defines{}
	flag.Var(defs, "D", "predefine a top-level binding: -D name=value (repeatable)")
	flag.Parse()

	if *listPasses {
		for _, p := range analysis.SpecPasses() {
			fmt.Printf("%s  %-14s (spec)     %s\n", p.Code, p.Name, p.Doc)
		}
		for _, p := range analysis.NetlistPasses() {
			fmt.Printf("%s  %-14s (netlist)  %s\n", p.Code, p.Name, p.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: lslint [flags] file.lss dir/ ...")
		flag.Usage()
		os.Exit(3)
	}

	sel := analysis.AllPasses()
	if *passNames != "" {
		var err error
		sel, err = analysis.SelectPasses(strings.Split(*passNames, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "lslint:", err)
			os.Exit(3)
		}
	}

	specs, err := collect(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lslint:", err)
		os.Exit(3)
	}
	combined := &analysis.Report{}
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lslint:", err)
			os.Exit(3)
		}
		r := sel.Lint(path, string(src), defs)
		combined.Diags = append(combined.Diags, r.Diags...)
	}
	combined.Sort()

	switch {
	case *sarifOut:
		err = combined.WriteSARIF(os.Stdout)
	case *jsonOut:
		err = combined.WriteJSON(os.Stdout)
	default:
		err = combined.WriteText(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lslint:", err)
		os.Exit(3)
	}
	if max, ok := combined.Max(); ok {
		os.Exit(int(max))
	}
}

// collect expands the argument list into .lss files, walking directories
// recursively. Order is the argument order, with directory contents
// sorted by WalkDir — deterministic either way.
func collect(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".lss") {
				out = append(out, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
