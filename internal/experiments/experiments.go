// Package experiments regenerates, for every theorem, figure and remark
// of the paper, an empirical table comparing the proven bound with the
// worst observed surviving-graph diameter under fault injection. The
// paper (a theory paper) has no measured tables of its own; these
// experiments are the reproduction's evidence that each construction
// delivers its claimed (d, f)-tolerance on the network families the
// paper names.
//
// Experiments are identified E1..E21, listed in order in runners below.
package experiments

import (
	"fmt"
	"strings"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Quick runs reduced configurations (used by unit tests).
	Quick Scale = iota
	// Full runs the configurations cmd/experiments prints by default.
	Full
)

// Table is one experiment's output.
type Table struct {
	ID         string
	Title      string
	PaperClaim string
	Header     []string
	Rows       [][]string
	Notes      []string
}

// AddRow appends a row of cells (stringifying each).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders an aligned ASCII table with title and notes.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper: %s\n", t.PaperClaim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Paper claim:* %s\n\n", t.PaperClaim)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note:* %s\n", n)
	}
	return b.String()
}

// Runner produces an experiment's tables at a given scale.
type Runner func(Scale) (*Table, error)

// runners lists every experiment in order.
var runners = []struct {
	id  string
	run Runner
}{
	{"E1", runE1},
	{"E2", runE2},
	{"E3", runE3},
	{"E4", runE4},
	{"E5", runE5},
	{"E6", runE6},
	{"E7", runE7},
	{"E8", runE8},
	{"E9", runE9},
	{"E10", runE10},
	{"E11", runE11},
	{"E12", runE12},
	{"E13", runE13},
	{"E14", runE14},
	{"E15", runE15},
	{"E16", runE16},
	{"E17", runE17},
	{"E18", runE18},
	{"E19", runE19},
	{"E20", runE20},
	{"E21", runE21},
}

// IDs returns all experiment ids in order.
func IDs() []string {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.id
	}
	return ids
}

// Run executes one experiment by id.
func Run(id string, scale Scale) (*Table, error) {
	for _, r := range runners {
		if r.id == id {
			return r.run(scale)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}

// diamStr renders a measured diameter, with ∞ for disconnection.
func diamStr(d int) string {
	if d < 0 {
		return "inf"
	}
	return fmt.Sprint(d)
}

// okStr renders a pass/fail comparison of measured against bound.
func okStr(measured, bound int) string {
	if measured >= 0 && measured <= bound {
		return "ok"
	}
	return "VIOLATED"
}
