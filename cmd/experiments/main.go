// Command experiments regenerates the reproduction's evaluation: for
// every theorem, figure and remark of Peleg & Simons (1987) it prints a
// table comparing the proven surviving-diameter bound against the worst
// diameter observed under fault injection.
//
// Usage:
//
//	experiments [-exp E1,E4] [-quick] [-markdown]
//
// With no flags it runs every experiment at full scale and prints ASCII
// tables; -markdown emits GitHub-flavored markdown tables instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ftroute/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment ids (E1..E21) or 'all'")
		quick    = flag.Bool("quick", false, "run reduced configurations")
		markdown = flag.Bool("markdown", false, "emit markdown instead of ASCII tables")
	)
	flag.Parse()

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	ids := experiments.IDs()
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := experiments.Run(id, scale)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *markdown {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.String())
			fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
