package analysis

import (
	"fmt"
	"strings"

	core "liberty/internal/core"
	"liberty/internal/lss"
)

// LintSource runs the full analysis pipeline over one LSS specification:
// parse, spec passes, elaborate + build, netlist passes, then pragma
// suppression. Failures at any stage become LSE000 diagnostics carrying
// the source position when one is known, so a broken spec still yields a
// report instead of an error — lslint's contract.
//
// opts configure the throwaway build (e.g. template registries via
// library init is implicit; pass -D-style defines through LintSourceWith).
// Do not pass StrictOption: LintSource already runs every pass itself.
func LintSource(name, src string, opts ...core.BuildOption) *Report {
	return LintSourceWith(name, src, nil, opts...)
}

// LintSourceWith is LintSource with predefined top-level bindings, the
// analysis-side equivalent of lsc -D overrides.
func LintSourceWith(name, src string, vars map[string]any, opts ...core.BuildOption) *Report {
	return AllPasses().Lint(name, src, vars, opts...)
}

// parseFor parses the spec source; split out so Selection.Lint shares
// the same entry.
func parseFor(name, src string) (*lss.File, error) {
	return lss.ParseFile(name, src)
}

func finish(r *Report, name, src string) *Report {
	ParsePragmas(name, src).Apply(r)
	r.Sort()
	return r
}

// buildFor elaborates and builds the spec, converting the panics the
// template layer uses for contract violations (*core.ParamError for bad
// algorithmic parameters, *core.ContractError for misused Base APIs)
// into ordinary errors.
func buildFor(f *lss.File, vars map[string]any, opts ...core.BuildOption) (sim *core.Sim, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			err = fmt.Errorf("panic during build: %v", p)
		}
	}()
	b := core.NewBuilder(opts...)
	if e := lss.NewElaborator(b).ElaborateWith(f, vars); e != nil {
		return nil, e
	}
	return b.Build()
}

// addErr records err as LSE000 diagnostics, flattening joined errors
// (Builder.Err aggregates every structural failure) and recovering the
// source position each underlying error type carries.
func addErr(r *Report, err error) {
	if err == nil {
		return
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			addErr(r, e)
		}
		return
	}
	pos, where := errPos(err)
	r.Add(Diagnostic{Code: "LSE000", Severity: Error,
		File: pos.File, Line: pos.Line, Where: where, Message: err.Error()})
}

// errPos recovers the source position and subject from the error types
// the parse/elaborate/build pipeline produces.
func errPos(err error) (core.Pos, string) {
	switch e := err.(type) {
	case *lss.SyntaxError:
		return core.Pos{File: e.File, Line: e.Line}, ""
	case *lss.ElabError:
		return core.Pos{File: e.File, Line: e.Line}, ""
	case *core.BuildError:
		return e.Pos, e.Where
	case *core.ParamError:
		return core.Pos{}, e.Param
	}
	return core.Pos{}, ""
}

// StrictError is the error Build returns under StrictOption when the
// netlist trips a diagnostic at warning severity or above.
type StrictError struct {
	Report *Report // the full report, informational diagnostics included
}

func (e *StrictError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "liberty: strict analysis: %d diagnostic(s) at or above %s severity",
		e.Report.CountAtLeast(Warning), Warning)
	for _, d := range e.Report.Diags {
		if d.Severity >= Warning {
			b.WriteString("\n\t")
			b.WriteString(d.String())
		}
	}
	return b.String()
}

// StrictOption returns a build option that runs every netlist pass after
// construction and fails the build with a *StrictError when any
// diagnostic reaches warning severity; informational ones (an optional
// port left unconnected) pass. Exposed publicly as
// lse.WithStrictAnalysis. Spec passes and pragma suppression do not
// apply here — the netlist may not have come from a spec; use LintSource
// for the full pipeline.
func StrictOption() core.BuildOption {
	return core.WithPostBuildCheck(func(s *core.Sim) error {
		rep := AnalyzeSim(s)
		if rep.CountAtLeast(Warning) > 0 {
			return &StrictError{Report: rep}
		}
		return nil
	})
}

// ParseStrict is the one parser behind lsc -strict and the /v1 "strict"
// field: the empty name (an omitted field) leaves strict analysis off
// and "warning", its one level, turns it on. Any other name is an error
// naming the valid one.
func ParseStrict(name string) (on bool, err error) {
	switch name {
	case "":
		return false, nil
	case "warning":
		return true, nil
	}
	return false, fmt.Errorf("unknown strict level %q (want warning)", name)
}
