// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload in a single process, measures it for a fixed
// host-time window, checks the simulated results, and prints every metric by
// name with its unit, ending with a one-line JSON result:
//
//	perfbench --workload dirhostile-16c --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer and reports the per-layer
// metrics, each layer's self time, and the tracing overhead. It exits
// non-zero when any operation fails or any result disagrees. README.md in
// this directory documents the workloads, the metrics and the layer each
// should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/system"
)

// Seeds recorded for workload-shape checks: the tuning seed was used while
// the workloads were sized; the held-out seed was not.
const (
	tuningSeed  = 1
	heldOutSeed = 7
)

// hardDeadline bounds a whole invocation, set-up and checks included.
const hardDeadline = 170 * time.Second

// options is one invocation's parameters.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// dir is a scratch directory for the files the run writes; it is
	// removed when the run ends.
	dir string
	// spans is the file a traced run writes its spans to.
	spans string
	// small shrinks every simulation to test size.
	small bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// meter measures host-speed drift while the run lasts.
	meter *hostMeter
	// mutate, when set, alters the configuration of timed simulation i
	// (tests use it to force a result mismatch).
	mutate func(i int, cfg *system.Config)
}

type workloadFunc func(opts *options, tr *tracer, rep *report) error

// workloads maps workload names to their runners.
var workloads = map[string]workloadFunc{
	"dirhostile-16c":     runSim,
	"private-64c-replay": runSim,
	"psim-2shard":        runSim,
	"service-fleet":      runService,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var opts options
	var seconds float64
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opts.seed, "seed", tuningSeed, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 30, "host seconds to measure for")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	if _, ok := workloads[opts.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", opts.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opts.window = time.Duration(seconds * float64(time.Second))
	opts.trace = traceFlag == 1
	opts.setups = 9

	// A run must end on its own; a wedged one is killed rather than left
	// to its caller.
	time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; aborting\n", hardDeadline)
		os.Exit(3)
	})

	out, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(filepath.Join(out, "run"), 0o755)
	}
	if err == nil {
		opts.dir, err = os.MkdirTemp(filepath.Join(out, "run"), opts.workload+"-")
	}
	opts.spans = filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch directory: %v\n", err)
		os.Exit(2)
	}
	rep := execute(&opts, os.Stdout)
	os.RemoveAll(opts.dir)
	if !rep.correct() {
		os.Exit(1)
	}
}

// execute runs one workload and writes its report to w.
func execute(opts *options, w io.Writer) *report {
	rep := newReport()
	rep.note("perfbench workload=%s seed=%d seconds=%g trace=%v", opts.workload, opts.seed, opts.window.Seconds(), opts.trace)
	stamp := hostStamp()
	rep.note("host %s", formatStamp(stamp))
	rep.note("model unvalidated: no hardware reference results exist, so no error figure is reported; " +
		"caches start cold (trace memo, runner LRU, result store and Go heap are empty at process start)")

	opts.meter = startHostMeter()
	defer opts.meter.close()
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	if err := workloads[opts.workload](opts, tr, rep); err != nil {
		if rep.attempted == 0 {
			rep.attempted = 1
		}
		rep.fail("%v", err)
	}
	rep.set("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), fmt.Sprintf("%d of %d", rep.failed, rep.attempted))
	defs := endToEnd
	if opts.trace {
		defs = perLayer
		tr.noteLayers(rep)
		err := os.MkdirAll(filepath.Dir(opts.spans), 0o755)
		if err == nil {
			err = tr.writeFile(opts.spans, stamp)
		}
		if err != nil {
			rep.note("spans not written: %v", err)
		} else {
			rep.note("spans written to %s", opts.spans)
		}
	}
	if err := rep.write(w, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	return rep
}

// hostStamp records what the numbers were measured on.
func hostStamp() map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"GOMAXPROCS": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"note":       "model unvalidated (no hardware reference, no error figure); caches cold at start",
	}
}

func formatStamp(s map[string]string) string {
	return fmt.Sprintf("nproc=%s GOMAXPROCS=%s go=%s cpu=%q os=%s", s["nproc"], s["GOMAXPROCS"], s["go"], s["cpu"], s["os"])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memDelta is the Go heap activity between two runtime.MemStats reads.
type memDelta struct {
	allocMB, gcCycles, gcPauseMS float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memBetween(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMS: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}
