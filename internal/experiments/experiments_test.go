package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the tables the experiments print now")

// timingHeaders name the columns whose cells are wall-clock readings;
// the golden comparison blanks them.
var timingHeaders = map[string]bool{
	"build": true, "plain ms": true, "bounded ms": true, "b+par ms": true, "speedup": true,
}

// blankTimings empties every cell under a timing header, before the
// table is rendered, so column widths do not depend on the clock.
func blankTimings(tbl *Table) {
	for i, h := range tbl.Header {
		if timingHeaders[h] {
			for _, row := range tbl.Rows {
				row[i] = ""
			}
		}
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 21 {
		t.Fatalf("registered %d experiments, want 21: %v", len(ids), ids)
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v", ids)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", Quick); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestAllExperimentsQuick runs every registered experiment at Quick scale
// and asserts that no measured value violates its paper bound, and that
// each table, timing cells blanked, prints what testdata/<id>.golden
// holds. Regenerate those files with
// go test ./internal/experiments -run TestAllExperimentsQuick -update.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, Quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			out := tbl.String()
			if strings.Contains(out, "VIOLATED") {
				t.Fatalf("experiment reports a violated bound:\n%s", out)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("row width %d != header %d", len(row), len(tbl.Header))
				}
			}
			// Markdown rendering must include every row.
			md := tbl.Markdown()
			if strings.Count(md, "\n|") < len(tbl.Rows)+1 {
				t.Fatal("markdown missing rows")
			}
			blankTimings(tbl)
			got := tbl.String()
			golden := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("table differs from %s:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "EX", Title: "demo", PaperClaim: "none",
		Header: []string{"a", "bb"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("x", 12)
	tbl.AddRow("longer", 3.5)
	s := tbl.String()
	if !strings.Contains(s, "EX — demo") || !strings.Contains(s, "a note") {
		t.Fatalf("rendering missing parts:\n%s", s)
	}
	if !strings.Contains(s, "3.500") {
		t.Fatalf("float formatting: %s", s)
	}
	if !strings.Contains(tbl.Markdown(), "| x | 12 |") {
		t.Fatalf("markdown: %s", tbl.Markdown())
	}
}

func TestDiamAndOkHelpers(t *testing.T) {
	if diamStr(-1) != "inf" || diamStr(4) != "4" {
		t.Fatal("diamStr wrong")
	}
	if okStr(4, 4) != "ok" || okStr(5, 4) != "VIOLATED" || okStr(-1, 4) != "VIOLATED" {
		t.Fatal("okStr wrong")
	}
}
