package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestCLIParity runs cmd/ftroute on each workload's relabelled graph at
// small scale and checks that its stdout is the harness's answer, so the
// replayed call sequence cannot drift from the CLI's.
func TestCLIParity(t *testing.T) {
	dir := t.TempDir()
	cli := filepath.Join(dir, "ftroute")
	if out, err := exec.Command("go", "build", "-o", cli, "ftroute/cmd/ftroute").CombinedOutput(); err != nil {
		t.Fatalf("build cmd/ftroute: %v\n%s", err, out)
	}
	for _, w := range workloads {
		w := w.smallScale()
		g, err := input(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, w.name+".edges")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.WriteEdgeList(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		ans, err := query(w, g, 1, nil)
		if err == nil {
			err = ans.check()
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got, err := exec.Command(cli, w.cliArgs("file:"+path, 1)...).Output()
		if err != nil {
			t.Fatalf("%s: ftroute %v: %v", w.name, w.cliArgs("file:"+path, 1), err)
		}
		if string(got) != ans.text {
			t.Errorf("%s: CLI printed\n%s\nthe harness printed\n%s", w.name, got, ans.text)
		}
	}
}

// cliArgs is the `ftroute` command line whose stdout the workload's
// answer reproduces, on the graph named by spec.
func (w workload) cliArgs(spec string, seed int64) []string {
	f := strconv.Itoa(w.faults)
	if w.failover {
		return []string{"failover", "-graph", spec, "-construction", "circular", "-mixed", "-cuts", f, "-seed", strconv.FormatInt(seed, 10)}
	}
	args := []string{"tolerate", "-graph", spec, "-construction", "circular", "-exhaustive", "-bounded", "-faults", f}
	if w.mixed {
		args = append(args, "-mixed")
	}
	return args
}
