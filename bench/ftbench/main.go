// Command ftbench is the end-to-end benchmark of the `ftroute tolerate`
// and `ftroute failover` pipelines. For one workload it replays the call
// sequence of cmd/ftroute on a seeded relabelling of the workload's
// graph, in a closed loop with one client, checks every answer, and
// prints the run's metrics as one JSON line: the end-to-end metrics, or
// with -trace 1 the per-layer metrics, timed around each call into a
// layer. bench/README.md describes the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload tolerate-ccc7 -seed 1 -seconds 15 -trace 0 [-out runs.jsonl]
//	bash bench/run.sh -workload tolerate-ccc7 -seed 1 -seconds 15 -trace 1 [-spans spans.json]
//	bash bench/run.sh -compare A.jsonl B.jsonl
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ftroute/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name      = fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed      = fs.Int64("seed", 1, "seed of the input relabelling, the sampled adversary and the simulation")
		seconds   = fs.Float64("seconds", 10, "length of the timed loop")
		trace     = fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
		spansPath = fs.String("spans", "", "traced run: write the spans to this JSON file")
		outPath   = fs.String("out", "", "append the run's record, with every query time, to this JSON-lines file for -compare")
		compareAB = fs.Bool("compare", false, "compare the runs of two -out files given as arguments")
		benchPath = fs.String("benchmark", "BENCHMARK.json", "-compare: the file holding the metrics' bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareAB {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "ftbench: -compare takes two -out files")
			return 2
		}
		worse, err := compare(*benchPath, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "ftbench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	w, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "ftbench: need -workload %s, -trace 0 or 1, and -seconds >= 0\n", strings.Join(names, "|"))
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ftbench:", err)
		return 2
	}
	if *spansPath != "" {
		if err := writeJSON(*spansPath, res.spans); err != nil {
			fmt.Fprintln(stderr, "ftbench:", err)
			return 2
		}
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, res); err != nil {
			fmt.Fprintln(stderr, "ftbench:", err)
			return 2
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "ftbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// Each run sets up this many times, and setup_s is their median. Every
// run times at least minQueries queries, so that a traced run has a
// traced and an untraced one.
const (
	setups     = 3
	minQueries = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run: the printed metrics plus what -compare and the
// tests read.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	QueryS    []float64          `json:"query_s"`         // untraced queries' wall times
	Calls     map[string]callRow `json:"calls,omitempty"` // traced run: every call's medians
	spans     []span
}

//go:embed golden.json
var goldenJSON []byte

// runWorkload sets w up, runs its timed loop for the given time, and
// computes the run's metrics. Failed queries are counted, not returned;
// an error means the harness itself could not measure.
func runWorkload(w workload, seed int64, seconds time.Duration, traced bool, log io.Writer) (*result, error) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	epoch := time.Now()
	res := &result{Workload: w.name, Seed: seed, Trace: traced, Metrics: map[string]metric{}}
	var want string // the first warm-up's answer
	// verify counts one attempted query and reports whether it passed.
	verify := func(label string, ans answer, err error) bool {
		res.Attempted++
		if err == nil {
			err = ans.check()
		}
		if err == nil && want != "" && ans.text != want {
			err = fmt.Errorf("answer differs from the warm-up's:\n%s", ans.text)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(log, "ftbench: %s %s: %v\n", w.name, label, err)
		}
		return err == nil
	}

	var (
		g      *graph.Graph
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if err := settle(); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if g, err = input(w, seed); err != nil {
			return nil, err
		}
		ans, err := query(w, g, seed, nil)
		setupS = append(setupS, time.Since(start).Seconds())
		if verify(fmt.Sprintf("warm-up %d", i), ans, err) && want == "" {
			want = ans.text
			if sum := sha256.Sum256([]byte(want)); !w.small && seed == 1 && hex.EncodeToString(sum[:]) != golden[w.name] {
				res.Failed++
				fmt.Fprintf(log, "ftbench: %s: answer digest %x is not golden.json's %s; answer:\n%s", w.name, sum, golden[w.name], want)
			}
		}
	}

	var (
		last                    answer
		sets                    int
		peakMB, tracedS, gcFrac []float64
	)
	loopStart := time.Now()
	for q := 0; q < minQueries || time.Since(loopStart) < seconds; q++ {
		var tr *tracer
		if traced && q%2 == 0 {
			tr = &tracer{workload: w.name, query: q, epoch: epoch}
		}
		if err := settle(); err != nil {
			return nil, err
		}
		gc0 := gcCPUSeconds()
		start := time.Now()
		ans, err := query(w, g, seed, tr)
		end := time.Now()
		wall := end.Sub(start).Seconds()
		if tr != nil {
			gcFrac = append(gcFrac, (gcCPUSeconds()-gc0)/(wall*float64(runtime.GOMAXPROCS(0))))
			tracedS = append(tracedS, wall)
			res.spans = append(res.spans, span{Workload: w.name, Query: q, Name: "query",
				StartNS: start.Sub(epoch).Nanoseconds(), EndNS: end.Sub(epoch).Nanoseconds()})
			res.spans = append(res.spans, tr.spans...)
		} else {
			peak, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			peakMB = append(peakMB, peak)
			res.QueryS = append(res.QueryS, wall)
			sets += ans.sets
		}
		if verify(fmt.Sprintf("query %d", q), ans, err) {
			last = ans
		}
	}

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	if !traced {
		put("query_s", "s", median(res.QueryS))
		put("sets_per_s", "sets/s", float64(sets)/sum(res.QueryS))
		put("setup_s", "s", median(setupS))
		put("peak_rss_mb", "MB", median(peakMB))
	} else {
		res.Calls = breakdown(res.spans)
		for _, layer := range []string{"core.Circular", "eval.search"} {
			r := res.Calls[layer]
			put(layer+".s", "s", r.S)
			put(layer+".share", "fraction", r.Share)
			put(layer+".alloc_mb", "MB", r.AllocMB)
		}
		put("unattributed.share", "fraction", res.Calls["unattributed"].Share)
		put("runtime.gc_cpu_frac", "fraction", median(gcFrac))
		put("trace.overhead", "fraction", median(tracedS)/median(res.QueryS)-1)
		put("eval.sets", "count", float64(last.sets))
		res.Attempted++
		if last.rt == nil {
			res.Failed++
		} else if err := probe(w, g, last.rt, put); err != nil {
			res.Failed++
			fmt.Fprintf(log, "ftbench: %s probe: %v\n", w.name, err)
		}
		printCalls(log, w.name, res.Calls)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Failed++
			fmt.Fprintf(log, "ftbench: %s: metric %s is %v\n", w.name, name, m.Value)
			delete(res.Metrics, name)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// settle runs before each set-up and query. It collects the heap and
// returns it to the OS, so that each starts as a fresh `ftroute` process
// does and its peak RSS does not depend on how many queries ran before
// it, and it resets the peak-RSS mark to the current RSS.
func settle() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func printCalls(log io.Writer, workload string, calls map[string]callRow) {
	names := make([]string, 0, len(calls))
	for name := range calls {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return calls[names[i]].S > calls[names[j]].S })
	fmt.Fprintf(log, "%s: median per traced query\n", workload)
	for _, name := range names {
		r := calls[name]
		fmt.Fprintf(log, "  %-40s %9.4f s  %6.3f share  %9.1f MB\n", name, r.S, r.Share, r.AllocMB)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func appendRecord(path string, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
