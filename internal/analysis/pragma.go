package analysis

import "strings"

// Pragmas is the set of `lse:ignore` suppression comments found in one
// spec source. A pragma suppresses matching diagnostics anchored to its
// own line; a pragma on a line of its own (nothing but the comment) also
// covers the next line, so it can sit above the statement it excuses.
type Pragmas struct {
	file   string
	byLine map[int][]string // line -> codes; empty slice = all codes
}

// ParsePragmas scans spec source for `lse:ignore` comments. Both comment
// styles work (`# lse:ignore LSE001` and `// lse:ignore LSE001,LSE002`);
// with no codes listed the pragma suppresses every diagnostic it covers.
func ParsePragmas(file, src string) *Pragmas {
	p := &Pragmas{file: file, byLine: make(map[int][]string)}
	for i, line := range strings.Split(src, "\n") {
		idx := strings.Index(line, "lse:ignore")
		if idx < 0 {
			continue
		}
		// Only honor the marker inside a comment.
		comment := strings.IndexAny(line, "#")
		if slash := strings.Index(line, "//"); slash >= 0 && (comment < 0 || slash < comment) {
			comment = slash
		}
		if comment < 0 || comment > idx {
			continue
		}
		rest := line[idx+len("lse:ignore"):]
		var codes []string
		for _, f := range strings.FieldsFunc(rest, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		}) {
			if strings.HasPrefix(f, "LSE") {
				codes = append(codes, f)
			} else {
				break // prose after the code list
			}
		}
		lineNo := i + 1
		p.byLine[lineNo] = codes
		// A standalone comment line covers the following statement line.
		if lead := strings.TrimSpace(line[:comment]); lead == "" {
			if _, taken := p.byLine[lineNo+1]; !taken {
				p.byLine[lineNo+1] = codes
			}
		}
	}
	return p
}

// Suppresses reports whether the pragma set silences d.
func (p *Pragmas) Suppresses(d Diagnostic) bool {
	if p == nil || d.Line == 0 || d.File != p.file {
		return false
	}
	codes, ok := p.byLine[d.Line]
	if !ok {
		return false
	}
	if len(codes) == 0 {
		return true
	}
	for _, c := range codes {
		if c == d.Code {
			return true
		}
	}
	return false
}

// Apply removes suppressed diagnostics from the report, returning how
// many were dropped.
func (p *Pragmas) Apply(r *Report) int {
	if p == nil || len(p.byLine) == 0 {
		return 0
	}
	kept := r.Diags[:0]
	dropped := 0
	for _, d := range r.Diags {
		if p.Suppresses(d) {
			dropped++
			continue
		}
		kept = append(kept, d)
	}
	r.Diags = kept
	return dropped
}
