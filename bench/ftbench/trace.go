package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into the library, or the root "query" span
// around a whole query. Times are nanoseconds since the run started.
type span struct {
	Workload   string `json:"workload"`
	Query      int    `json:"query"`
	Name       string `json:"name"`
	Parent     string `json:"parent"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer records a span around each call the harness makes into a
// layer. A nil *tracer only runs the calls: that is the untraced path
// the end-to-end metrics come from.
type tracer struct {
	workload string
	query    int
	epoch    time.Time
	spans    []span
}

func (t *tracer) call(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	a0 := totalAlloc()
	start := time.Now()
	fn()
	end := time.Now()
	t.spans = append(t.spans, span{
		Workload: t.workload, Query: t.query, Name: name, Parent: "query",
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
		AllocBytes: totalAlloc() - a0,
	})
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gcCPUSeconds is the runtime's estimate of the CPU time spent in GC so
// far. The runtime updates it as each GC cycle ends.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// callRow is one call's median cost per traced query.
type callRow struct {
	S       float64 `json:"s"`
	Share   float64 `json:"share"`
	AllocMB float64 `json:"alloc_mb"`
}

// breakdown folds the spans of the traced queries into per-call medians.
// A call made several times in one query (netsim's two runs) counts as
// their sum. The row "eval.search" sums every eval call of a query, and
// "unattributed" is the query time outside any call.
func breakdown(spans []span) map[string]callRow {
	type perQuery struct {
		wall  float64
		calls map[string]callRow
	}
	queries := map[int]*perQuery{}
	for _, s := range spans {
		if s.Parent == "" {
			queries[s.Query] = &perQuery{wall: s.seconds(), calls: map[string]callRow{"unattributed": {S: s.seconds()}}}
		}
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		q := queries[s.Query]
		add := func(name string) {
			r := q.calls[name]
			r.S += s.seconds()
			r.AllocMB += float64(s.AllocBytes) / (1 << 20)
			q.calls[name] = r
		}
		add(s.Name)
		if strings.HasPrefix(s.Name, "eval.") {
			add("eval.search")
		}
		r := q.calls["unattributed"]
		r.S -= s.seconds()
		q.calls["unattributed"] = r
	}
	cols := map[string][3][]float64{}
	for _, q := range queries {
		for name, r := range q.calls {
			c := cols[name]
			c[0] = append(c[0], r.S)
			c[1] = append(c[1], r.S/q.wall)
			c[2] = append(c[2], r.AllocMB)
			cols[name] = c
		}
	}
	out := map[string]callRow{}
	for name, c := range cols {
		out[name] = callRow{S: median(c[0]), Share: median(c[1]), AllocMB: median(c[2])}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
