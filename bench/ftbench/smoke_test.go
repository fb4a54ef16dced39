package main

import (
	"io"
	"math"
	"testing"
	"time"
)

// TestSmoke runs every workload at small scale for two queries, untraced
// and traced, and checks the output against BENCHMARK.json: every
// metric it names is emitted with its unit and a finite value, spans
// nest inside their query, and the calls' shares account for the query.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	units := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		units[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[1][m.Name] = m.Unit
	}
	defer func(d time.Duration) { probeWindow = d }(probeWindow)
	probeWindow = time.Millisecond

	for _, w := range workloads {
		w := w.smallScale()
		for i, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, 0, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < setups+minQueries {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(units[i]) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(units[i]))
			}
			for name, unit := range units[i] {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s", w.name, traced, name, m, ok, unit)
				}
			}
			if traced {
				checkSpans(t, w.name, res)
			}
		}
	}
}

func checkSpans(t *testing.T, name string, res *result) {
	t.Helper()
	roots := map[int]span{}
	for _, s := range res.spans {
		if s.Parent == "" {
			roots[s.Query] = s
		}
	}
	if len(roots) == 0 {
		t.Errorf("%s: no traced query", name)
	}
	for _, s := range res.spans {
		root, ok := roots[s.Query]
		if s.Parent != "" && (s.Parent != "query" || !ok || s.StartNS < root.StartNS || s.EndNS > root.EndNS || s.EndNS < s.StartNS) {
			t.Errorf("%s: span %+v is not inside its query %+v", name, s, root)
		}
	}
	total := 0.0
	for call, r := range res.Calls {
		if call != "eval.search" {
			total += r.Share
		}
	}
	if math.Abs(total-1) > 0.01 {
		t.Errorf("%s: call shares plus unattributed sum to %v, want 1", name, total)
	}
}

// smallScale is the workload on CCC(4), the smallest CCC the circular
// construction accepts, with budget 1: it keeps the smoke and parity
// tests fast while running every call of the full-scale pipeline.
func (w workload) smallScale() workload {
	w.dim, w.faults, w.probeF, w.small = 4, 1, 1, true
	return w
}
