// Command vetlse runs the engine-contract multichecker over Go module
// templates (see internal/analysis/vetlse). It has two passes:
// planephase flags signal writes reachable from OnCycleEnd commit
// handlers — including registered method values — which panic with a
// contract violation at simulation time; sequential flags a
// MarkSequential template whose react handler calls an Out port or whose
// start handler reads a port.
//
// It runs two ways:
//
//	go vet -vettool=$(which vetlse) ./...   # as a vet backend
//	vetlse ./internal/pcl file.go           # standalone, walking dirs
//
// The vet integration speaks cmd/go's unit-checker protocol directly
// (-V=full, -flags, then one <unit>.cfg argument per package) because the
// official go/analysis framework lives outside the standard library and
// this repo is dependency-free.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"liberty/internal/analysis/vetlse"
)

func main() {
	// Protocol step 1: cmd/go interrogates the tool's version for its
	// build cache key. The reply must be "<toolname> version <version>"
	// with a concrete (non-devel) version string.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Printf("%s version v0.1.0\n", filepath.Base(os.Args[0]))
		return
	}
	// Protocol step 2: cmd/go asks for the tool's flag schema.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vetlse [files or directories]...\n"+
			"       go vet -vettool=/path/to/vetlse ./...\n")
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Protocol step 3: a single *.cfg argument means cmd/go is driving.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0]))
	}
	os.Exit(runDirect(args))
}

// vetConfig is the slice of cmd/go's unit-checker config this tool needs.
type vetConfig struct {
	ID         string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

// runVetUnit checks one package unit on behalf of `go vet -vettool`.
// The facts file must be written even when empty — cmd/go treats a
// missing VetxOutput as tool failure. Exit code 2 signals diagnostics,
// matching the standard vet analyzers.
func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetlse: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "vetlse: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "vetlse: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	findings := vetlse.CheckFiles(cfg.GoFiles)
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s\n", f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// runDirect walks the given files and directories (recursively, skipping
// testdata) and checks every .go file.
func runDirect(args []string) int {
	var files []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vetlse: %v\n", err)
			return 1
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vetlse: %v\n", err)
			return 1
		}
	}
	findings := vetlse.CheckFiles(files)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
