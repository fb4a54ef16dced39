package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns loads the untraced runs of an -out file by workload.
func readRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<26)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, sc.Err()
}

// compare judges B's runs against A's for every workload in both and
// every end-to-end metric. A metric's samples are its value in each run;
// query_s pools every query of every run. The verdict is "worse" when
// B's median is worse than A's by more than the bound, "unresolved" when
// either side's spread (quartile distance over median) exceeds the
// bound and not every B sample beats every A sample, and "agree"
// otherwise. compare reports whether any verdict is "worse".
func compare(specPath, aPath, bPath string, out io.Writer) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return false, err
	}
	var workloadNames []string
	for name := range a {
		if len(b[name]) > 0 {
			workloadNames = append(workloadNames, name)
		}
	}
	sort.Strings(workloadNames)
	anyWorse := false
	fmt.Fprintf(out, "%-20s %-12s %28s %28s %8s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse", "verdict")
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			xs, ys := samples(a[wl], m.Name), samples(b[wl], m.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			ma, mb := median(xs), median(ys)
			worse := sign * (mb - ma) / ma
			verdict := "agree"
			switch {
			case math.Max(spread(xs), spread(ys)) > m.Bound && !allBetter(ys, xs, sign):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(out, "%-20s %-12s %28s %28s %+7.1f%%  %s\n", wl, m.Name, summary(xs), summary(ys), 100*worse, verdict)
		}
	}
	return anyWorse, nil
}

func samples(runs []result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if name == "query_s" {
			xs = append(xs, r.QueryS...)
		} else if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// allBetter reports whether every y beats every x; sign is +1 when lower
// is better.
func allBetter(ys, xs []float64, sign float64) bool {
	for _, y := range ys {
		for _, x := range xs {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

func summary(xs []float64) string {
	num := func(x float64) string {
		if math.Abs(x) >= 1000 {
			return fmt.Sprintf("%.0f", x)
		}
		return fmt.Sprintf("%.4g", x)
	}
	q := quartiles(xs)
	return fmt.Sprintf("%s [%s, %s] (%d)", num(median(xs)), num(q[0]), num(q[2]), len(xs))
}

func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / median(xs)
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// exclusive method.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
