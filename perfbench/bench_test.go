package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/system"
)

// smallOptions are test-sized options: tiny simulations, a short window
// and a single set-up.
func smallOptions(t *testing.T, workload string, trace bool) *options {
	return &options{
		workload: workload,
		seed:     tuningSeed,
		window:   50 * time.Millisecond,
		trace:    trace,
		dir:      t.TempDir(),
		spans:    filepath.Join(t.TempDir(), "spans.jsonl"),
		small:    true,
		setups:   1,
	}
}

// parsed is one run's output: the metric lines and the result object.
type parsed struct {
	lines  map[string]string // metric name -> unit printed on its line
	result jsonResult
	text   string
}

var metricLine = regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)`)

func runAndParse(t *testing.T, opts *options) (*report, parsed) {
	t.Helper()
	var buf bytes.Buffer
	rep := execute(opts, &buf)
	out := parsed{lines: map[string]string{}, text: buf.String()}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.result); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if m := metricLine.FindStringSubmatch(l); m != nil {
			out.lines[m[1]] = m[3]
		}
	}
	return rep, out
}

// TestSmokeEveryWorkload runs every workload at test size, untraced and
// traced, and checks that every metric of the matching table prints by name
// with its unit, and that the result object carries exactly those metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			opts := smallOptions(t, name, trace)
			_, out := runAndParse(t, opts)
			if !out.result.Correct || out.result.Failed != 0 || out.result.Attempted < 1 {
				t.Fatalf("%s trace=%v: result %+v\n%s", name, trace, out.result, out.text)
			}
			if len(out.result.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", name, trace, len(out.result.Metrics), len(defs))
			}
			for _, d := range defs {
				if unit, ok := out.lines[d.name]; !ok || unit != d.unit {
					t.Errorf("%s trace=%v: metric line for %s has unit %q (printed: %v)", name, trace, d.name, unit, ok)
				}
				m, ok := out.result.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: result metric %s = %+v", name, trace, d.name, m)
				}
			}
			if trace {
				if fi, err := os.Stat(opts.spans); err != nil || fi.Size() == 0 {
					t.Errorf("%s: spans file not written: %v", name, err)
				}
			} else {
				for _, d := range endToEnd {
					if out.result.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.name, out.result.Metrics[d.name].Value)
					}
				}
			}
			for _, want := range []string{"# host nproc=", "GOMAXPROCS=", "go=go", "cpu=", "model unvalidated", "caches start cold", "results digest", "host slowdown"} {
				if !strings.Contains(out.text, want) {
					t.Errorf("%s trace=%v: output lacks %q", name, trace, want)
				}
			}
		}
	}
}

// TestForcedDigestMismatchIsAFailure changes the seed of one timed
// simulation: its results digest no longer matches the first one, and the
// run must report a failed operation rather than pass.
func TestForcedDigestMismatchIsAFailure(t *testing.T) {
	opts := smallOptions(t, "dirhostile-16c", false)
	opts.mutate = func(i int, cfg *system.Config) {
		if i == 1 {
			cfg.Seed++
		}
	}
	rep, out := runAndParse(t, opts)
	if out.result.Correct || rep.failed != 1 || out.result.Failed != 1 {
		t.Fatalf("mismatch not reported: result %+v\n%s", out.result, out.text)
	}
	if !strings.Contains(out.text, "differs from the first simulation") {
		t.Errorf("failure line does not name the digest mismatch:\n%s", out.text)
	}
}

// TestTruncatedTraceIsAFailure replays a cut-short .btrace file in one
// timed simulation: the run must count it as a failed operation and carry
// on, not crash.
func TestTruncatedTraceIsAFailure(t *testing.T) {
	opts := smallOptions(t, "private-64c-replay", false)
	cut := filepath.Join(t.TempDir(), "truncated.btrace")
	opts.mutate = func(i int, cfg *system.Config) {
		if i != 1 {
			return
		}
		b, err := os.ReadFile(cfg.TraceFiles[0])
		if err != nil {
			t.Fatal(err)
		}
		// Cut inside a record: keep the header and half the payload, ending
		// on a varint continuation byte.
		n := 8 + (len(b)-8)/2
		for n < len(b) && b[n-1]&0x80 == 0 {
			n++
		}
		if err := os.WriteFile(cut, b[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		files := append([]string(nil), cfg.TraceFiles...)
		files[0] = cut
		cfg.TraceFiles = files
	}
	rep, out := runAndParse(t, opts)
	if out.result.Correct || rep.failed != 1 {
		t.Fatalf("truncated trace not reported: result %+v\n%s", out.result, out.text)
	}
	if !strings.Contains(out.text, "mid-record") {
		t.Errorf("failure line does not name the truncation:\n%s", out.text)
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricTablesMatchBenchmarkJSON keeps the reported metrics, their
// units and the workload names in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestREADMEPredictsEveryPerLayerMetric checks that the prediction table
// in README.md has a row for every per-layer metric.
func TestREADMEPredictsEveryPerLayerMetric(t *testing.T) {
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		cells := strings.Split(sc.Text(), "|")
		if len(cells) > 2 {
			rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = true
		}
	}
	for _, d := range perLayer {
		if !rows[d.name] {
			t.Errorf("README.md prediction table has no row for %s", d.name)
		}
	}
}

// TestWorkloadShape checks, on the tuning and the held-out seed, that each
// workload stresses the layer it was chosen for: the directory is looked up
// on ~96% of dirhostile-16c's accesses and ~2% of private-64c-replay's, and
// about three quarters of service-fleet's requests repeat a pool config.
func TestWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulations")
	}
	for _, seed := range []int64{tuningSeed, heldOutSeed} {
		for _, name := range []string{"dirhostile-16c", "private-64c-replay"} {
			cfg := simSpecFor(name, seed, false).cfg
			op := runSimOp(cfg, nil, 0, true)
			if op.err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, op.err)
			}
			perAccess := ratio(float64(op.counters.DirLookups), float64(op.counters.Accesses))
			if err := checkShape(name, perAccess, 0); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
			t.Logf("%s seed %d: directory lookups per access %.4f", name, seed, perAccess)
		}
		pool, err := poolFor(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		hits, n := 0, 4000
		for c := 0; c < serviceClients; c++ {
			gen := newRequestGen(seed, c, pool, false)
			for i := 0; i < n/serviceClients; i++ {
				r, err := gen.next()
				if err != nil {
					t.Fatal(err)
				}
				if !r.fresh {
					hits++
				}
			}
		}
		share := float64(hits) / float64(n)
		if err := checkShape("service-fleet", 0, share); err != nil {
			t.Errorf("service-fleet seed %d: %v", seed, err)
		}
		t.Logf("service-fleet seed %d: repeat share %.3f", seed, share)
	}
}
