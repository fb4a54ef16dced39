package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what the command lines print now")

// goldenRuns are the command lines TestCLIGolden pins, in run order:
// check reads the table export wrote. TABLE stands for a file in the
// test's temporary directory, in the arguments and in what is printed.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"failover-sampled", []string{"failover", "-graph", "cycle:9", "-construction", "circular", "-cuts", "1", "-messages", "60", "-samples", "20"}},
	{"failover-sampled-shortest", []string{"failover", "-graph", "petersen", "-construction", "shortest", "-cuts", "2", "-messages", "60", "-samples", "20"}},
	{"failover-exhaustive", []string{"failover", "-graph", "petersen", "-construction", "shortest", "-cuts", "2", "-messages", "60", "-exhaustive"}},
	{"failover-exhaustive-circular", []string{"failover", "-graph", "cycle:9", "-construction", "circular", "-cuts", "1", "-messages", "60", "-exhaustive"}},
	{"failover-no-backups", []string{"failover", "-graph", "ccc:3", "-cuts", "2", "-messages", "60", "-samples", "20", "-backups", "0"}},
	{"failover-no-cuts", []string{"failover", "-graph", "cycle:12", "-construction", "kernel", "-cuts", "0", "-messages", "60", "-exhaustive"}},
	{"failover-mixed", []string{"failover", "-graph", "cycle:9", "-construction", "circular", "-cuts", "1", "-messages", "60", "-exhaustive", "-mixed"}},
	{"failover-mixed-sampled", []string{"failover", "-graph", "petersen", "-construction", "shortest", "-cuts", "2", "-messages", "60", "-samples", "20", "-mixed"}},
	{"failover-mixed-lambda", []string{"failover", "-graph", "petersen", "-construction", "shortest", "-cuts", "2", "-messages", "60", "-samples", "20", "-mixed", "-lambda", "0.5"}},
	{"tolerate-sampled", []string{"tolerate", "-graph", "cycle:12", "-samples", "20"}},
	{"tolerate-exhaustive", []string{"tolerate", "-graph", "cycle:9", "-construction", "circular", "-exhaustive"}},
	{"tolerate-mixed", []string{"tolerate", "-graph", "cycle:12", "-construction", "circular", "-mixed", "-faults", "2", "-samples", "20"}},
	{"tolerate-mixed-exhaustive", []string{"tolerate", "-graph", "cycle:9", "-construction", "circular", "-exhaustive", "-mixed"}},
	{"route-auto", []string{"route", "-graph", "cycle:12"}},
	{"route-kernel", []string{"route", "-graph", "ccc:3", "-construction", "kernel"}},
	{"route-circular", []string{"route", "-graph", "cycle:9", "-construction", "circular"}},
	{"route-tricircular", []string{"route", "-graph", "cycle:12", "-construction", "tricircular"}},
	{"route-bipolar", []string{"route", "-graph", "cycle:12", "-construction", "bipolar"}},
	{"route-bipolar-bi", []string{"route", "-graph", "cycle:12", "-construction", "bipolar-bi"}},
	{"route-shortest", []string{"route", "-graph", "petersen", "-construction", "shortest"}},
	{"plan", []string{"plan", "-graph", "petersen"}},
	{"plan-cycle12", []string{"plan", "-graph", "cycle:12"}},
	{"info", []string{"info", "-graph", "petersen"}},
	{"orbits", []string{"orbits", "-graph", "ccc:3"}},
	{"orbits-hypercube6", []string{"orbits", "-graph", "hypercube:6"}},
	{"simulate", []string{"simulate", "-graph", "cycle:12", "-construction", "kernel", "-samples", "30"}},
	{"export", []string{"export", "-graph", "cycle:9", "-construction", "circular", "-table", "TABLE"}},
	{"check-fails", []string{"check", "-graph", "cycle:9", "-table", "TABLE", "-bound", "2", "-exhaustive"}},
}

// TestCLIGolden compares what each of goldenRuns prints, its stdout and
// then its error, with testdata/<name>.golden. Regenerate those files
// with go test ./cmd/ftroute -run TestCLIGolden -update.
func TestCLIGolden(t *testing.T) {
	table := filepath.Join(t.TempDir(), "routing.json")
	for _, tc := range goldenRuns {
		args := append([]string(nil), tc.args...)
		for i, a := range args {
			if a == "TABLE" {
				args[i] = table
			}
		}
		out, err := runOutput(t, args...)
		got := "$ ftroute " + strings.Join(tc.args, " ") + "\n" + out
		if err != nil {
			got += "error: " + err.Error() + "\n"
		}
		got = strings.ReplaceAll(got, table, "TABLE")
		golden := filepath.Join("testdata", tc.name+".golden")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s printed\n%s\nwant (%s):\n%s", tc.name, got, golden, want)
		}
	}
}
