package gen

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// specCases are Parse's table rows; FuzzParse seeds from them too.
var specCases = []struct {
	spec    string
	wantN   int
	wantErr bool
	named   bool // the error must name the spec
}{
	{"cycle:9", 9, false, false},
	{"path:5", 5, false, false},
	{"wheel:9", 9, false, false},
	{"grid:3x4", 12, false, false},
	{"torus:3x5", 15, false, false},
	{"hypercube:4", 16, false, false},
	{"ccc:3", 24, false, false},
	{"butterfly:3", 24, false, false},
	{"debruijn:4", 16, false, false},
	{"harary:3x8", 8, false, false},
	{"gp:12x5", 24, false, false},
	{"petersen", 10, false, false},
	{"icosahedron", 12, false, false},
	{"gnp:20:0.3:7", 20, false, false},
	{"regular:12:3:5", 12, false, false},
	{"cycle:2", 0, true, false},
	{"gp:4x2", 0, true, false},
	{"grid:3", 0, true, true},
	{"gnp:20:0.3", 0, true, true},
	{"gnp:20:x:1", 0, true, true},
	{"gnp:5:NaN:1", 0, true, false},
	{"regular:12:3", 0, true, true},
	{"nosuch:4", 0, true, true},
	{"cycle", 0, true, true},
	{"cycle:7x", 0, true, true},
	{"grid", 0, true, true},
	{"harary", 0, true, true},
	{"ccc:x", 0, true, true},
	{"grid:3xq", 0, true, true},
	// Sizes that overflow an int or exceed graph.MaxNodes are errors,
	// not panics or out-of-memory crashes.
	{"grid:4294967296x4294967296", 0, true, false},
	{"torus:3037000500x3037000500", 0, true, false},
	{"harary:3x4611686018427387904", 0, true, false},
	{"regular:4611686018427387904:3:1", 0, true, false},
	{"gnp:4611686018427387904:0.5:1", 0, true, false},
	{"path:4611686018427387904", 0, true, false},
	{"cycle:2000000000", 0, true, false},
}

func TestParseGraphSpecs(t *testing.T) {
	for _, tc := range specCases {
		t.Run(tc.spec, func(t *testing.T) {
			g, err := Parse(tc.spec)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("spec %q should fail", tc.spec)
				}
				if tc.named && !strings.Contains(err.Error(), strconv.Quote(tc.spec)) {
					t.Fatalf("error %q does not name the spec", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != tc.wantN {
				t.Fatalf("n = %d, want %d", g.N(), tc.wantN)
			}
		})
	}
}

func TestParseGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("n 3\n0 1\n1 2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	g, err := Parse("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("g = %v", g)
	}
	if _, err := Parse("file:" + filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file should fail")
	}
	huge := filepath.Join(dir, "huge.txt")
	if err := os.WriteFile(huge, []byte("n 100000000000\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse("file:" + huge); err == nil {
		t.Fatal("a node count above graph.MaxNodes should fail, not allocate")
	}
}

// FuzzParse feeds arbitrary specs to Parse. It must not panic, and a
// spec it accepts must build Equal graphs twice. It skips file: specs
// and any spec with an integer above 12: bigger arguments can ask a
// generator for gigabytes before any error is possible.
func FuzzParse(f *testing.F) {
	for _, tc := range specCases {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if family, _, _ := strings.Cut(spec, ":"); family == "file" {
			return
		}
		notDigit := func(r rune) bool { return r < '0' || r > '9' }
		for _, run := range strings.FieldsFunc(spec, notDigit) {
			if v, err := strconv.Atoi(run); err != nil || v > 12 {
				return
			}
		}
		g, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(spec)
		if err != nil || !g.Equal(again) {
			t.Fatalf("%q built %v, then %v (err %v)", spec, g, again, err)
		}
	})
}
