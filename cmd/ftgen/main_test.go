package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftroute/internal/gen"
)

func TestGenerateEdgeList(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := run([]string{"-graph", "cycle:6", "-o", path}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "n 6\n") || !strings.Contains(s, "0 5") {
		t.Fatalf("edge list = %q", s)
	}
}

func TestGenerateJSONAndDot(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"json", "dot"} {
		path := filepath.Join(dir, "g."+format)
		if err := run([]string{"-graph", "petersen", "-o", path, "-format", format}, os.Stdout); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %v", format, err)
		}
	}
}

// TestGenerateErrors: each bad command line fails with an error that
// says what is wrong and, since main adds "ftgen: ", carries no prefix
// of its own.
func TestGenerateErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a substring of the error
	}{
		{nil, "usage"},
		{[]string{"-graph", "nosuch:1"}, `"nosuch:1"`},
		{[]string{"-graph", "cycle:6", "-format", "xml"}, `unknown format "xml"`},
		{[]string{"-graph", "gp:4x2"}, "GeneralizedPetersen(4,2)"},
		// A malformed spec's error names it.
		{[]string{"-graph", "cycle"}, `"cycle"`},
		{[]string{"-graph", "harary"}, `"harary"`},
		{[]string{"-graph", "cycle:7x"}, `"cycle:7x"`},
		{[]string{"-graph", "ccc:x"}, `"ccc:x"`},
	} {
		err := run(tc.args, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.HasPrefix(err.Error(), "ftgen:") {
			t.Errorf("ftgen %v: err = %v, want one containing %q and no \"ftgen:\" prefix", tc.args, err, tc.want)
		}
	}
}

// TestGenerateErrorKeepsOutput: a command that fails leaves an
// existing -o file with its bytes.
func TestGenerateErrorKeepsOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	want := []byte("n 2\n0 1\n")
	if err := os.WriteFile(path, want, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", "cycle:5", "-o", path, "-format", "bogus"}, os.Stdout); err == nil {
		t.Fatal("-format bogus succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("out.txt holds %q (err %v), want %q", got, err, want)
	}
}

// TestGenerateSpecs: for each spec, ftgen writes an edge list that
// file: reads back as the graph the spec builds.
func TestGenerateSpecs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	for _, spec := range []string{"gp:12x5", "wheel:9", "harary:3x9", "grid:2x3", "torus:3x3", "hypercube:3", "ccc:3", "butterfly:3", "debruijn:3", "path:4", "gnp:10:0.4:3", "regular:10:3:1"} {
		if err := run([]string{"-graph", spec, "-o", path}, os.Stdout); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want, err := gen.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gen.Parse("file:" + path)
		if err != nil || got.N() == 0 || !got.Equal(want) {
			t.Fatalf("%s: read back %v (err %v), want %v", spec, got, err, want)
		}
	}
}
