// Command ftgen generates graph files in the library's edge-list format
// (readable back via `ftroute ... -graph file:PATH`).
//
// Usage:
//
//	ftgen -graph <spec> [-o out.txt] [-format edgelist|json|dot]
//
// Specs are the same as cmd/ftroute's, read by internal/gen's Parse:
// cycle:N, path:N, wheel:N, grid:RxC, torus:RxC, hypercube:N, ccc:N,
// butterfly:N, debruijn:N, harary:KxN, gp:NxK, petersen, icosahedron,
// gnp:N:P:SEED, regular:N:D:SEED and file:PATH.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ftroute/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("ftgen", flag.ContinueOnError)
	var (
		spec   = fs.String("graph", "", "graph specification (see cmd/ftroute)")
		out    = fs.String("o", "", "output path (default stdout)")
		format = fs.String("format", "edgelist", "edgelist|json|dot")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" {
		return fmt.Errorf("usage: ftgen -graph <spec> [-o out] [-format edgelist|json|dot]")
	}
	g, err := gen.Parse(*spec)
	if err != nil {
		return err
	}
	// The output is rendered before -o is opened, so a failing command
	// leaves an existing file as it was.
	var data []byte
	switch *format {
	case "edgelist":
		var b bytes.Buffer
		if err := g.WriteEdgeList(&b); err != nil {
			return err
		}
		data = b.Bytes()
	case "json":
		js, err := json.Marshal(g)
		if err != nil {
			return err
		}
		data = append(js, '\n')
	case "dot":
		data = []byte(g.DOT("G"))
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if *out == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o666)
}
