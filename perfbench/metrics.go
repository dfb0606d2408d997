package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's whole vocabulary: a run with tracing off reports
// exactly endToEnd, a traced run exactly perLayer (BENCHMARK.json lists the
// same names; TestMetricTablesMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"accesses_per_s", "1/s"},
	{"alloc_mb_per_run", "MB"},
	{"rss_mb", "MB"},
	{"sim_cycles", "cycles"},
	{"sim_flit_hops", "flit-hops"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p95_ms", "ms"},
}

var perLayer = []metricDef{
	{"failed_frac", "ratio"},
	{"trace.gen_s", "s"},
	{"trace.decode_ns_per_access", "ns"},
	{"system.build_s", "s"},
	{"coherence.drive_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"coherence.audit_s", "s"},
	{"core.dir_lookups_per_kacc", "count"},
	{"core.dir_miss_rate", "ratio"},
	{"core.stash_evictions", "count"},
	{"core.recall_evictions", "count"},
	{"core.discovery_broadcasts", "count"},
	{"core.discovery_found_ratio", "ratio"},
	{"noc.flit_hops_per_access", "flit-hops"},
	{"cache.l1_miss_rate", "ratio"},
	{"cache.llc_miss_rate", "ratio"},
	{"coherence.avg_miss_latency_cycles", "cycles"},
	{"coherence.coverage_misses", "count"},
	{"psim.drive_s", "s"},
	{"psim.ns_per_event", "ns"},
	{"psim.speedup_vs_serial", "ratio"},
	{"go.gc_cycles_per_run", "count"},
	{"go.gc_pause_ms_per_run", "ms"},
	{"runner.cache_hit_ratio", "ratio"},
	{"runner.coalesced", "count"},
	{"runner.run_latency_p50_ms", "ms"},
	{"fleet.remote_hit_ratio", "ratio"},
	{"fleet.proxied", "count"},
	{"fleet.self_ms", "ms"},
	{"stashd.handler_ms", "ms"},
	{"stashd.shed_429", "count"},
	{"stashd.shed_503", "count"},
	{"host.slowdown", "ratio"},
	{"tracing.accesses_per_s_ratio", "ratio"},
	{"tracing.req_p50_ratio", "ratio"},
}

// report is one run's outcome: the correctness verdict, the operation
// counts, the metric values, and free-form notes printed before the result
// line.
type report struct {
	attempted int
	failed    int
	errs      []string
	values    map[string]float64
	details   map[string]string
	notes     []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, details: map[string]string{}}
}

// set records a metric value with an optional note on how it was measured.
func (r *report) set(name string, v float64, detail string) {
	r.values[name] = v
	r.details[name] = detail
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the notes, one line per metric in table order, and the
// result object as the last line. A metric of defs the run did not set is
// itself a failure: every run reports the full table.
func (r *report) write(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "# FAIL %s\n", e)
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line := fmt.Sprintf("%-36s %14.6g %s", d.name, v, d.unit)
		if det := r.details[d.name]; det != "" {
			line += "  (" + det + ")"
		}
		fmt.Fprintln(w, line)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if len(missing) != 0 {
		out.Correct = false
		fmt.Fprintf(w, "# FAIL metrics not measured: %v\n", missing)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle value (mean of the two middle values for even
// counts), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// p95 returns the 95th percentile of xs and says how it was obtained. With
// at least ten samples beyond the nearest-rank p95 it is that sample. With
// fewer, no sample quantile has ten samples beyond it, and the largest
// samples are single outliers; the value is then the normal-theory
// estimate median + 1.645σ, with σ = 1.4826 × the median absolute
// deviation, which one outlier cannot move.
func p95(xs []float64) (float64, string) {
	n := len(xs)
	if beyond := n - int(math.Ceil(0.95*float64(n))); beyond >= 10 {
		return percentile(xs, 0.95), fmt.Sprintf("nearest rank over n=%d; %d samples beyond it", n, beyond)
	}
	m := median(xs)
	dev := make([]float64, n)
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return m + 1.645*1.4826*median(dev), fmt.Sprintf("n=%d has fewer than 10 samples beyond p95: median + 1.645 x 1.4826 MAD", n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
