package testbed

import (
	"fmt"
	"strings"
)

// Report is one experiment's regenerated artifact: an identifier tying
// it to the paper's table/figure, a title and preformatted text lines.
type Report struct {
	// ID matches the DESIGN.md experiment index (e.g. "fig13").
	ID string
	// Title describes the artifact.
	Title string
	// Lines are the rendered rows.
	Lines []string
}

// Addf appends a formatted line.
func (r *Report) Addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report with a header.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
