package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ftroute/internal/gen"
)

// TestParseGraphSpecs: -graph is gen.Parse, whose own test pins what
// each spec builds. Each spec prints the node count Parse builds, or
// fails with Parse's error unchanged (main adds the one "ftroute: ").
func TestParseGraphSpecs(t *testing.T) {
	for _, spec := range []string{
		"cycle:9", "path:5", "wheel:9", "grid:3x4", "torus:3x5", "hypercube:4", "ccc:3",
		"butterfly:3", "debruijn:4", "harary:3x8", "gp:12x5", "petersen", "icosahedron",
		"gnp:20:0.3:7", "regular:12:3:5", "cycle:2", "grid:3", "gnp:20:0.3", "gnp:20:x:1",
		"gnp:5:NaN:1", "regular:12:3", "nosuch:4", "cycle", "grid", "ccc:x", "grid:3xq",
		"grid:4294967296x4294967296", "torus:3037000500x3037000500",
		"harary:3x4611686018427387904", "regular:4611686018427387904:3:1",
		"gnp:4611686018427387904:0.5:1", "path:4611686018427387904", "cycle:2000000000",
	} {
		t.Run(spec, func(t *testing.T) {
			want, wantErr := gen.Parse(spec)
			out, err := runOutput(t, "info", "-graph", spec)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("err = %v, want %v", err, wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if line := fmt.Sprintf("nodes:        %d\n", want.N()); !strings.Contains(out, line) {
				t.Fatalf("printed\n%s\nwant %q", out, line)
			}
		})
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no args should fail")
	}
	if err := run([]string{"info"}); err == nil {
		t.Fatal("missing -graph should fail")
	}
	if err := run([]string{"bogus", "-graph", "cycle:5"}); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
	if err := run([]string{"info", "-nosuchflag"}); err == nil {
		t.Fatal("bad flag should fail")
	}
}

func TestRunSubcommands(t *testing.T) {
	// The subcommands print to stdout; these cases assert only that
	// they succeed on well-formed input (TestCLIGolden,
	// TestRouteSummaryLines and TestParseGraphSpecs pin what the same
	// command lines print).
	cases := [][]string{
		{"info", "-graph", "cycle:9"},
		{"plan", "-graph", "cycle:12"},
		{"route", "-graph", "cycle:9", "-construction", "circular"},
		{"route", "-graph", "ccc:3", "-construction", "kernel"},
		{"route", "-graph", "cycle:10", "-construction", "bipolar"},
		{"route", "-graph", "cycle:10", "-construction", "bipolar-bi"},
		{"route", "-graph", "cycle:45", "-construction", "tricircular"},
		{"route", "-graph", "cycle:9", "-construction", "shortest"},
		{"tolerate", "-graph", "cycle:9", "-construction", "circular", "-exhaustive"},
		{"tolerate", "-graph", "cycle:12", "-construction", "auto", "-samples", "20"},
		{"tolerate", "-graph", "cycle:9", "-construction", "circular", "-exhaustive", "-mixed"},
		{"tolerate", "-graph", "cycle:12", "-construction", "circular", "-mixed", "-faults", "2", "-samples", "20"},
		{"simulate", "-graph", "cycle:12", "-construction", "kernel", "-samples", "30"},
		{"failover", "-graph", "cycle:9", "-construction", "circular", "-cuts", "1", "-messages", "60", "-exhaustive"},
		{"failover", "-graph", "petersen", "-construction", "shortest", "-cuts", "2", "-messages", "60", "-samples", "20"},
		{"failover", "-graph", "cycle:9", "-construction", "circular", "-cuts", "1", "-messages", "60", "-exhaustive", "-mixed"},
		{"failover", "-graph", "petersen", "-construction", "shortest", "-cuts", "2", "-messages", "60", "-samples", "20", "-mixed"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if _, err := runOutput(t, args...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRouteSummaryLines pins the first line route prints for each
// construction: its name, the (bound, t) its Info reports and the
// structure it chose, or the construction's error unchanged.
func TestRouteSummaryLines(t *testing.T) {
	for _, tc := range []struct {
		spec, construction, want string
	}{
		{"cycle:9", "circular", "circular routing: (6, 1)-tolerant, K=3"},
		{"ccc:3", "kernel", "kernel routing: (4, 2)-tolerant, separator [1 2 3]"},
		{"cycle:10", "bipolar", "unidirectional bipolar routing: (4, 1)-tolerant, roots (0, 5)"},
		{"cycle:10", "bipolar-bi", "bidirectional bipolar routing: (5, 1)-tolerant, roots (0, 5)"},
		{"cycle:45", "tricircular", "tri-circular routing: (4, 1)-tolerant, K=15"},
		{"cycle:12", "auto", "auto chose bipolar-uni: (4, 1)-tolerant — two-trees property at roots (0, 5)"},
		{"cycle:9", "shortest", "shortest-path routing (baseline): no designed tolerance, t=1"},
	} {
		t.Run(tc.spec+" "+tc.construction, func(t *testing.T) {
			out, err := runOutput(t, "route", "-graph", tc.spec, "-construction", tc.construction)
			if err != nil {
				t.Fatal(err)
			}
			if line, _, _ := strings.Cut(out, "\n"); line != tc.want {
				t.Fatalf("printed %q, want %q", line, tc.want)
			}
		})
	}
	_, err := runOutput(t, "route", "-graph", "ccc:3", "-construction", "bipolar")
	if want := "core: construction not applicable: no two-trees pair"; err == nil || err.Error() != want {
		t.Fatalf("ccc:3 bipolar: err = %v, want %q", err, want)
	}
}

// TestRunRejectsNonFiniteLambda: under NaN or ±Inf no fault set ranks
// above another, so the adversary would report the empty set.
func TestRunRejectsNonFiniteLambda(t *testing.T) {
	for _, lambda := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
		t.Run(lambda, func(t *testing.T) {
			err := run([]string{"failover", "-graph", "cycle:6", "-construction", "shortest", "-mixed", "-lambda", lambda})
			if err == nil || !strings.HasPrefix(err.Error(), "-lambda must be finite") {
				t.Fatalf("-lambda %s: err = %v, want a finiteness error", lambda, err)
			}
		})
	}
}

// TestRunRejectsNegativeFailoverCounts: run checks the count flags
// before any subcommand reads them, so every subcommand rejects a
// -cuts, -backups or -retries below 0 and a -samples or -messages below
// 1, naming the flag. Accepted, a negative -cuts would search only the
// empty set, a negative -backups or -retries would be clamped to zero,
// and a -samples or -messages below 1 would be replaced by a default
// without a word.
func TestRunRejectsNegativeFailoverCounts(t *testing.T) {
	for _, tc := range []struct {
		flag   string
		bad    []string
		phrase string
	}{
		{"-cuts", []string{"-1"}, "non-negative"},
		{"-backups", []string{"-1"}, "non-negative"},
		{"-retries", []string{"-1"}, "non-negative"},
		{"-samples", []string{"0", "-1"}, "positive"},
		{"-messages", []string{"0", "-1"}, "positive"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			for _, sub := range subcommands {
				for _, bad := range tc.bad {
					_, err := runOutput(t, sub, "-graph", "cycle:6", "-construction", "shortest", tc.flag, bad)
					if want := tc.flag + " must be " + tc.phrase + ", got " + bad; err == nil || err.Error() != want {
						t.Errorf("%s %s %s: err = %v, want %q", sub, tc.flag, bad, err, want)
					}
				}
			}
		})
	}
}

// subcommands are the nine subcommands run dispatches to.
var subcommands = []string{"info", "plan", "route", "orbits", "tolerate", "simulate", "failover", "export", "check"}

// TestRunRejectsUnknownConstruction: run checks -construction before it
// dispatches, so every subcommand rejects a name build does not know,
// also those that never build a routing (info, plan, orbits, check).
// The error does not name the program: main adds the one "ftroute: ".
func TestRunRejectsUnknownConstruction(t *testing.T) {
	for _, sub := range subcommands {
		t.Run(sub, func(t *testing.T) {
			_, err := runOutput(t, sub, "-graph", "cycle:9", "-construction", "magic")
			if want := `unknown construction "magic"`; err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}

// TestRunRejectsUnreadFlags: each subcommand rejects every flag that is
// not on its usage line, naming the subcommand and the flag, and
// accepts -bounded. Each row lists what the usage line reads.
func TestRunRejectsUnreadFlags(t *testing.T) {
	set := map[string][]string{
		"construction": {"-construction", "shortest"}, "faults": {"-faults", "1"},
		"samples": {"-samples", "5"}, "seed": {"-seed", "3"}, "exhaustive": {"-exhaustive"},
		"mixed": {"-mixed"}, "lambda": {"-lambda", "0.5"},
		"table": {"-table", "TABLE"}, "bound": {"-bound", "2"}, "cuts": {"-cuts", "1"},
		"backups": {"-backups", "1"}, "retries": {"-retries", "1"}, "messages": {"-messages", "10"},
	}
	for _, tc := range []struct {
		sub   string
		reads []string
	}{
		{"info", nil},
		{"plan", nil},
		{"route", []string{"construction"}},
		{"orbits", nil},
		{"tolerate", []string{"construction", "faults", "samples", "seed", "exhaustive", "mixed"}},
		{"simulate", []string{"construction", "faults", "samples", "seed"}},
		{"failover", []string{"construction", "cuts", "backups", "retries", "messages", "samples", "seed", "exhaustive", "mixed", "lambda"}},
		{"export", []string{"construction", "table"}},
		{"check", []string{"table", "bound", "faults", "samples", "seed", "exhaustive"}},
	} {
		t.Run(tc.sub, func(t *testing.T) {
			rejected := 0
			for name, args := range set {
				if slices.Contains(tc.reads, name) {
					continue
				}
				rejected++
				_, err := runOutput(t, append([]string{tc.sub, "-graph", "cycle:9"}, args...)...)
				if want := tc.sub + " takes no -" + name + " flag"; err == nil || err.Error() != want {
					t.Errorf("-%s: err = %v, want %q", name, err, want)
				}
			}
			if rejected+len(tc.reads) != len(set) {
				t.Fatalf("row names a flag run does not define: %v", tc.reads)
			}
		})
	}
	table := filepath.Join(t.TempDir(), "routing.json")
	for _, args := range [][]string{
		{"info", "-graph", "cycle:9"},
		{"plan", "-graph", "cycle:9"},
		{"route", "-graph", "cycle:9"},
		{"orbits", "-graph", "cycle:9"},
		{"tolerate", "-graph", "cycle:9", "-samples", "5"},
		{"simulate", "-graph", "cycle:9", "-samples", "5"},
		{"failover", "-graph", "cycle:9", "-samples", "5", "-messages", "10"},
		{"export", "-graph", "cycle:9", "-table", table},
		{"check", "-graph", "cycle:9", "-table", table, "-bound", "6", "-faults", "1", "-samples", "5"},
	} {
		if _, err := runOutput(t, append(args, "-bounded")...); err != nil {
			t.Errorf("%v -bounded: %v", args, err)
		}
	}
}

func TestDiamHelper(t *testing.T) {
	if diam(-1) != "inf" || diam(3) != "3" {
		t.Fatal("diam formatting wrong")
	}
}

func TestExportAndCheckRoundTrip(t *testing.T) {
	dir := t.TempDir()
	table := filepath.Join(dir, "routing.json")
	if err := run([]string{"export", "-graph", "cycle:9", "-construction", "circular", "-table", table}); err != nil {
		t.Fatal(err)
	}
	// Theorem 10: (6,1)-tolerant; exhaustive check must pass.
	if err := run([]string{"check", "-graph", "cycle:9", "-table", table, "-bound", "6", "-exhaustive"}); err != nil {
		t.Fatal(err)
	}
	// An impossible bound must fail.
	if err := run([]string{"check", "-graph", "cycle:9", "-table", table, "-bound", "1", "-exhaustive"}); err == nil {
		t.Fatal("bound 1 should fail")
	}
	// The wrong graph must reject the table.
	if err := run([]string{"check", "-graph", "cycle:12", "-table", table, "-bound", "6"}); err == nil {
		t.Fatal("graph mismatch should fail")
	}
}

func TestCheckRequiresFlags(t *testing.T) {
	if err := run([]string{"check", "-graph", "cycle:9"}); err == nil {
		t.Fatal("missing -table should fail")
	}
	dir := t.TempDir()
	table := filepath.Join(dir, "r.json")
	if err := run([]string{"export", "-graph", "cycle:9", "-construction", "circular", "-table", table}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-graph", "cycle:9", "-table", table}); err == nil {
		t.Fatal("missing -bound should fail")
	}
}

// TestExportIsDeterministic: two export runs of the same routing write
// the same bytes, whatever order the routing's map holds its routes in.
func TestExportIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	var tables [2][]byte
	for i := range tables {
		table := filepath.Join(dir, "routing"+strconv.Itoa(i)+".json")
		if err := run([]string{"export", "-graph", "ccc:3", "-table", table}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(table)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = data
	}
	if string(tables[0]) != string(tables[1]) {
		t.Fatalf("two exports of ccc:3 differ:\n%.200s\n%.200s", tables[0], tables[1])
	}
}

// runOutput runs the CLI and returns what it printed to stdout.
func runOutput(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestPrintedBounds: each command prints the bound its construction
// proves, and a routing with no designed bound prints none.
func TestPrintedBounds(t *testing.T) {
	table := filepath.Join(t.TempDir(), "complete.json")
	cases := []struct {
		args         []string
		want, unwant string
	}{
		// The kernel at t = 1 is (max{2t,4}, t) = (4, 1)-tolerant.
		{[]string{"plan", "-graph", "cycle:8"}, "surviving diameter <= 4 for up to 1 faults", ""},
		{[]string{"tolerate", "-graph", "cycle:8", "-exhaustive"}, "(bound 4 for f <= 1)", "EXCEEDS BOUND"},
		{[]string{"tolerate", "-graph", "cycle:5", "-exhaustive"}, "(bound 4 for f <= 1)", "EXCEEDS BOUND"},
		{[]string{"tolerate", "-graph", "petersen", "-construction", "shortest", "-exhaustive"},
			"worst-case surviving diameter by fault count:\n", "bound"},
		{[]string{"tolerate", "-graph", "petersen", "-construction", "shortest", "-exhaustive", "-mixed"},
			"fault sets of total size <= 2:\n", "bound"},
		// A complete graph has κ = n-1 and no separator.
		{[]string{"tolerate", "-graph", "gnp:5:1:1", "-construction", "shortest", "-exhaustive"}, "t=3", "bound"},
		{[]string{"export", "-graph", "gnp:5:1:1", "-construction", "shortest", "-table", "TABLE"}, "wrote 20 routes", ""},
		{[]string{"check", "-graph", "gnp:5:1:1", "-table", "TABLE", "-bound", "1", "-exhaustive"}, "for |F| <= 3", ""},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			args := append([]string(nil), tc.args...)
			for i, a := range args {
				if a == "TABLE" {
					args[i] = table
				}
			}
			out, err := runOutput(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, tc.want) || tc.unwant != "" && strings.Contains(out, tc.unwant) {
				t.Fatalf("printed\n%s\nwant %q and not %q", out, tc.want, tc.unwant)
			}
		})
	}
}
