package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/coherence"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
	wl "repro/internal/workloads"
)

// The three simulation workloads. Each timed operation builds the machine
// (system.Build / system.BuildParallel), drives it to completion
// (Fabric.Drive / ParallelFabric.Drive), closes its access sources and, on
// the serial engine, re-runs coherence.Audit.

// simSpec is one simulation workload.
type simSpec struct {
	cfg system.Config
	// replay writes the per-core streams to .btrace files at set-up and
	// replays them (Config.TraceFiles, mmap decoder) in every timed run.
	replay bool
}

func simSpecFor(name string, seed int64, small bool) simSpec {
	var s simSpec
	// Each simulation is sized to take about half a second on the reference
	// host, so a 30 s window holds 40 to 60 of them and the medians and the
	// p95 estimate rest on that many samples.
	switch name {
	case "dirhostile-16c":
		s.cfg = system.DefaultConfig("canneal")
		s.cfg.AccessesPerCore = 10_000
	case "private-64c-replay":
		s.cfg = system.DefaultConfig("blackscholes")
		s.cfg.Cores = 64
		s.cfg.AccessesPerCore = 20_000
		s.replay = true
	case "psim-2shard":
		s.cfg = system.DefaultConfig("barnes")
		s.cfg.Checker = false // the parallel engine cannot host the value oracle
		s.cfg.Shards = 2
		s.cfg.AccessesPerCore = 10_000
	}
	s.cfg.DirKind = system.DirStash
	s.cfg.Coverage = 0.125
	s.cfg.Seed = seed
	if small {
		s.cfg.AccessesPerCore = 1000
	}
	return s
}

// decoySeed derives the seed of set-up repetition k (all but the last
// set-up use fresh seeds, so each one generates its streams rather than
// replaying the trace memo).
func decoySeed(seed int64, k int) int64 {
	return seed + int64(k+1)*1_000_003
}

// minOps is the fewest timed operations a run makes, however long they take.
const minOps = 3

// setupSim is one set-up of a simulation workload: it generates every
// core's stream (which publishes it to the process-wide trace memo the
// timed runs replay), writes and reopens the .btrace files of a replay
// workload, and builds the machine once. It returns the configuration the
// timed runs use and the stream generation time.
func setupSim(spec simSpec, seed int64, dir string, tr *tracer) (system.Config, time.Duration, error) {
	cfg := spec.cfg
	cfg.Seed = seed
	root := tr.begin("setup", 0, 0)
	defer root.finish()

	mix, err := wl.Get(cfg.Workload)
	if err != nil {
		return cfg, 0, err
	}
	mix = mix.Scaled(cfg.WorkloadScale)
	stream := func(core int) (*trace.Stream, error) {
		return trace.NewStream(mix, core, cfg.Cores, cfg.AccessesPerCore, seed)
	}

	sp := tr.begin("trace.new_stream", root.id(), 0)
	t := time.Now()
	for i := 0; i < cfg.Cores; i++ {
		s, err := stream(i)
		if err != nil {
			return cfg, 0, err
		}
		drain(s)
	}
	gen := time.Since(t)
	sp.finish()

	if spec.replay {
		paths := make([]string, cfg.Cores)
		sp = tr.begin("trace.write_binary", root.id(), 0)
		for i := range paths {
			paths[i] = filepath.Join(dir, fmt.Sprintf("core%03d.btrace", i))
			if err := writeBinary(paths[i], func() (trace.Source, error) { return stream(i) }); err != nil {
				return cfg, 0, err
			}
		}
		sp.finish()

		sp = tr.begin("trace.open_binary", root.id(), 0)
		for _, p := range paths {
			src, err := trace.OpenBinary(p)
			if err != nil {
				return cfg, 0, err
			}
			src.Close()
		}
		sp.finish()
		cfg.Workload = ""
		cfg.TraceFiles = paths
	}

	name := "system.build"
	if cfg.Shards > 0 {
		name = "system.build_parallel"
	}
	sp = tr.begin(name, root.id(), 0)
	var procs []*coherence.Processor
	if cfg.Shards > 0 {
		_, procs, err = system.BuildParallel(cfg)
	} else {
		_, procs, err = system.Build(cfg)
	}
	sp.finish()
	closeSources(procs)
	return cfg, gen, err
}

func writeBinary(path string, open func() (trace.Source, error)) error {
	src, err := open()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinarySource(f, src); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// drain consumes an access source and returns how many accesses it held.
func drain(s trace.Source) int {
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}

// closeSources releases file-backed access sources.
func closeSources(procs []*coherence.Processor) {
	for _, p := range procs {
		if c, ok := p.Source().(io.Closer); ok {
			c.Close()
		}
	}
}

// finishSources closes the sources after a run and returns the first
// replay error a source deferred until its end (a truncated or corrupt
// .btrace file ends its stream early and reports here).
func finishSources(procs []*coherence.Processor) error {
	var first error
	for _, p := range procs {
		if e, ok := p.Source().(interface{ Err() error }); ok && first == nil {
			first = e.Err()
		}
		if c, ok := p.Source().(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// simOp is one timed simulation.
type simOp struct {
	start                    time.Time
	dur, build, drive, audit time.Duration
	mem                      memDelta
	counters                 simCounters
	digest                   string
	err                      error
	traced                   bool
	slowdown                 float64
}

// normalized returns o with every host time divided by the host's
// slowdown while it ran (see hostmeter.go).
func (o simOp) normalized(m *hostMeter) simOp {
	o.slowdown = m.slowdown(o.start, o.start.Add(o.dur))
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) / o.slowdown) }
	o.dur, o.build, o.drive, o.audit = scale(o.dur), scale(o.build), scale(o.drive), scale(o.audit)
	return o
}

func (o simOp) accessesPerS() float64 {
	return ratio(float64(o.counters.Accesses), o.dur.Seconds())
}

// runSimOp builds, drives and checks one machine. audit re-runs
// coherence.Audit on the drained serial fabric.
func runSimOp(cfg system.Config, tr *tracer, req int64, audit bool) simOp {
	var op simOp
	root := tr.begin("simulation", 0, req)
	m0 := readMem()
	t0 := time.Now()
	op.start = t0

	var fab *coherence.Fabric
	var procs []*coherence.Processor
	var cycles, events uint64
	var err error
	t := time.Now()
	if cfg.Shards > 0 {
		var pf *coherence.ParallelFabric
		sp := tr.begin("system.build_parallel", root.id(), req)
		pf, procs, err = system.BuildParallel(cfg)
		op.build = time.Since(t)
		sp.finish()
		if err == nil {
			sp = tr.begin("coherence.parallel_drive", root.id(), req)
			t = time.Now()
			err = pf.Drive(procs, 0)
			op.drive = time.Since(t)
			sp.finish()
			fab, cycles, events = pf.Root, uint64(pf.Cycles()), pf.EventsRun()
		}
	} else {
		sp := tr.begin("system.build", root.id(), req)
		fab, procs, err = system.Build(cfg)
		op.build = time.Since(t)
		sp.finish()
		if err == nil {
			sp = tr.begin("coherence.drive", root.id(), req)
			t = time.Now()
			err = fab.Drive(procs, 0)
			op.drive = time.Since(t)
			sp.finish()
			cycles, events = uint64(fab.Engine.Now()), fab.Engine.EventsRun()
		}
	}
	if err == nil {
		err = finishSources(procs)
	} else {
		closeSources(procs)
	}
	if err == nil && audit {
		sp := tr.begin("coherence.audit", root.id(), req)
		t = time.Now()
		bad := coherence.Audit(fab)
		op.audit = time.Since(t)
		sp.finish()
		if len(bad) != 0 {
			err = fmt.Errorf("audit: %s (%d violations)", bad[0], len(bad))
		}
	}
	op.dur = time.Since(t0)
	root.finish()
	op.mem = memBetween(m0, readMem())
	op.err = err
	if err == nil {
		// The digest reads the statistics before counters() looks any up.
		op.digest = digestFabric(fab, procs, cycles, events)
		op.counters = countersFromFabric(fab, cycles, events)
	}
	return op
}

// digestFabric is the canonical-JSON digest of everything a simulation
// measured: cycles, events, and every counter and histogram of every
// processor, L1, bank, directory slice, LLC slice, the memory and the mesh.
// Two runs of one deterministic configuration must produce equal digests.
func digestFabric(fab *coherence.Fabric, procs []*coherence.Processor, cycles, events uint64) string {
	sets := map[string]map[string]int64{}
	add := func(key string, s *stats.Set) {
		m := map[string]int64{}
		for _, n := range s.CounterNames() {
			m[n] = s.Counter(n).Value()
		}
		for _, n := range s.HistogramNames() {
			h := s.Histogram(n)
			m[n+".count"], m[n+".sum"], m[n+".min"], m[n+".max"] = h.Count(), h.Sum(), h.Min(), h.Max()
		}
		sets[key] = m
	}
	for i, p := range procs {
		add(fmt.Sprintf("proc.%03d", i), p.Stats())
	}
	for i, l1 := range fab.L1s {
		add(fmt.Sprintf("l1.%03d", i), l1.Stats())
	}
	for i, b := range fab.Banks {
		add(fmt.Sprintf("bank.%03d", i), b.Stats())
		add(fmt.Sprintf("dir.%03d", i), b.Directory().Stats())
		add(fmt.Sprintf("llc.%03d", i), b.LLC().Stats())
	}
	add("memory", fab.Memory.Stats())
	add("noc", fab.Mesh.Stats())
	b, err := json.Marshal(struct {
		Cycles, Events uint64
		Stats          map[string]map[string]int64
	}{cycles, events, sets})
	if err != nil {
		panic(err) // maps of strings to ints always encode
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// simCounters are the per-layer counts of one simulation.
type simCounters struct {
	Cycles, Events                      uint64
	Accesses, L1Misses, CoverageMisses  int64
	MissLatSum, MissLatN                int64
	DirLookups, DirMisses               int64
	StashEvictions, RecallEvictions     int64
	DiscoveryBroadcasts, DiscoveryFound int64
	LLCAccesses, LLCMisses              int64
	FlitHops                            int64
}

func countersFromFabric(fab *coherence.Fabric, cycles, events uint64) simCounters {
	c := simCounters{Cycles: cycles, Events: events, FlitHops: fab.Mesh.TotalFlitHops()}
	for _, l1 := range fab.L1s {
		s := l1.Stats()
		c.Accesses += s.Counter("loads").Value() + s.Counter("stores").Value()
		c.L1Misses += s.Counter("misses").Value()
		c.CoverageMisses += s.Counter("coverage_misses").Value()
		h := s.Histogram("miss_latency")
		c.MissLatSum += h.Sum()
		c.MissLatN += h.Count()
	}
	for _, b := range fab.Banks {
		d := b.Directory().Stats()
		c.DirLookups += d.Counter("lookups").Value()
		c.DirMisses += d.Counter("misses").Value()
		c.StashEvictions += d.Counter("stash_evictions").Value()
		c.RecallEvictions += d.Counter("recall_evictions").Value()
		bs := b.Stats()
		c.DiscoveryBroadcasts += bs.Counter("discovery_broadcasts").Value()
		c.DiscoveryFound += bs.Counter("discovery_found").Value()
		l := b.LLC().Stats()
		hits, misses := l.Counter("hits").Value(), l.Counter("misses").Value()
		c.LLCAccesses += hits + misses
		c.LLCMisses += misses
	}
	return c
}

// countersFromResults is countersFromFabric for a finished system.Results
// (what the run service returns).
func countersFromResults(r *system.Results) simCounters {
	return simCounters{
		Cycles: r.Cycles, Events: r.EventsRun,
		Accesses: r.Loads + r.Stores, L1Misses: r.L1Misses, CoverageMisses: r.CoverageMisses,
		MissLatSum: int64(r.AvgMissLatency * float64(r.L1Misses)), MissLatN: r.L1Misses,
		DirLookups: r.DirLookups, DirMisses: r.DirMisses,
		StashEvictions: r.StashEvictions, RecallEvictions: r.RecallEvictions,
		DiscoveryBroadcasts: r.DiscoveryBroadcasts, DiscoveryFound: r.DiscoveryFound,
		LLCAccesses: r.LLCAccesses, LLCMisses: r.LLCMisses,
		FlitHops: r.TotalFlitHops,
	}
}

func (c *simCounters) add(o simCounters) {
	c.Cycles += o.Cycles
	c.Events += o.Events
	c.Accesses += o.Accesses
	c.L1Misses += o.L1Misses
	c.CoverageMisses += o.CoverageMisses
	c.MissLatSum += o.MissLatSum
	c.MissLatN += o.MissLatN
	c.DirLookups += o.DirLookups
	c.DirMisses += o.DirMisses
	c.StashEvictions += o.StashEvictions
	c.RecallEvictions += o.RecallEvictions
	c.DiscoveryBroadcasts += o.DiscoveryBroadcasts
	c.DiscoveryFound += o.DiscoveryFound
	c.LLCAccesses += o.LLCAccesses
	c.LLCMisses += o.LLCMisses
	c.FlitHops += o.FlitHops
}

// setCounterMetrics reports the directory, cache, NoC and protocol
// per-layer metrics of c (over n simulations, for the per-simulation
// counts).
func setCounterMetrics(rep *report, c simCounters, n int, detail string) {
	f := func(v int64) float64 { return float64(v) }
	per := func(v int64) float64 { return ratio(f(v), float64(n)) }
	rep.set("sim.events", ratio(float64(c.Events), float64(n)), detail)
	rep.set("core.dir_lookups_per_kacc", 1000*ratio(f(c.DirLookups), f(c.Accesses)), detail)
	rep.set("core.dir_miss_rate", ratio(f(c.DirMisses), f(c.DirLookups)), detail)
	rep.set("core.stash_evictions", per(c.StashEvictions), detail)
	rep.set("core.recall_evictions", per(c.RecallEvictions), detail)
	rep.set("core.discovery_broadcasts", per(c.DiscoveryBroadcasts), detail)
	rep.set("core.discovery_found_ratio", ratio(f(c.DiscoveryFound), f(c.DiscoveryBroadcasts)), "found / broadcasts")
	rep.set("noc.flit_hops_per_access", ratio(f(c.FlitHops), f(c.Accesses)), detail)
	rep.set("cache.l1_miss_rate", ratio(f(c.L1Misses), f(c.Accesses)), detail)
	rep.set("cache.llc_miss_rate", ratio(f(c.LLCMisses), f(c.LLCAccesses)), detail)
	rep.set("coherence.avg_miss_latency_cycles", ratio(f(c.MissLatSum), f(c.MissLatN)), detail)
	rep.set("coherence.coverage_misses", per(c.CoverageMisses), detail)
}

// noteShape prints the workload-shape facts of one simulation; see
// checkShape.
func noteShape(rep *report, workload string, c simCounters) {
	lookups := ratio(float64(c.DirLookups), float64(c.Accesses))
	l1 := ratio(float64(c.L1Misses), float64(c.Accesses))
	verdict := "ok"
	if err := checkShape(workload, lookups, 0); err != nil {
		verdict = "VIOLATED: " + err.Error()
	}
	rep.note("shape dir_lookups_per_access=%.4f l1_miss_rate=%.4f stash_evictions=%d discovery_broadcasts=%d events=%d: %s",
		lookups, l1, c.StashEvictions, c.DiscoveryBroadcasts, c.Events, verdict)
}

// checkShape verifies a workload-shape fact: the directory is looked up on
// most accesses of dirhostile-16c and on few of private-64c-replay, and
// about three quarters of service-fleet requests are cache hits.
func checkShape(workload string, dirLookupsPerAccess, hitShare float64) error {
	switch workload {
	case "dirhostile-16c":
		if dirLookupsPerAccess < 0.90 {
			return fmt.Errorf("directory lookups per access %.3f, want >= 0.90", dirLookupsPerAccess)
		}
	case "private-64c-replay":
		if dirLookupsPerAccess > 0.05 {
			return fmt.Errorf("directory lookups per access %.3f, want <= 0.05", dirLookupsPerAccess)
		}
	case "service-fleet":
		if hitShare < 0.65 || hitShare > 0.85 {
			return fmt.Errorf("cache-hit share %.3f, want 0.65..0.85", hitShare)
		}
	}
	return nil
}

// decodeNsPerAccess times one pass over the workload's access sources
// outside any simulation: the .btrace files through trace.OpenBinary, or
// the memoised streams through trace.NewStream.
func decodeNsPerAccess(cfg system.Config) (float64, error) {
	n := 0
	t := time.Now()
	if len(cfg.TraceFiles) != 0 {
		for _, p := range cfg.TraceFiles {
			src, err := trace.OpenBinary(p)
			if err != nil {
				return 0, err
			}
			n += drain(src)
			err = src.Err()
			src.Close()
			if err != nil {
				return 0, err
			}
		}
	} else {
		mix, err := wl.Get(cfg.Workload)
		if err != nil {
			return 0, err
		}
		mix = mix.Scaled(cfg.WorkloadScale)
		for i := 0; i < cfg.Cores; i++ {
			s, err := trace.NewStream(mix, i, cfg.Cores, cfg.AccessesPerCore, cfg.Seed)
			if err != nil {
				return 0, err
			}
			n += drain(s)
		}
	}
	return ratio(float64(time.Since(t).Nanoseconds()), float64(n)), nil
}

// runSim runs one simulation workload: set-up, the timed window, the
// correctness gate, and (traced) the per-layer extras.
func runSim(opts *options, tr *tracer, rep *report) error {
	spec := simSpecFor(opts.workload, opts.seed, opts.small)
	m := opts.meter

	var setups []interval
	var genS []float64
	var cfg system.Config
	for k := 0; k < opts.setups; k++ {
		seed := opts.seed
		if k < opts.setups-1 {
			seed = decoySeed(opts.seed, k)
		}
		dir := filepath.Join(opts.dir, fmt.Sprintf("setup%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t := time.Now()
		c, gen, err := setupSim(spec, seed, dir, tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, interval{t, time.Now()})
		genS = append(genS, gen.Seconds())
		if k < opts.setups-1 {
			os.RemoveAll(dir)
		} else {
			cfg = c
		}
	}

	// The timed window. A traced run alternates traced and untraced
	// simulations so the tracing overhead is measured within one process.
	audit := cfg.Shards == 0
	var ops []simOp
	var durs []float64
	ref := ""
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minOps && time.Since(start)+time.Duration(median(durs)*float64(time.Second)) > opts.window {
			break
		}
		c := cfg
		if opts.mutate != nil {
			opts.mutate(i, &c)
		}
		var t *tracer
		if i%2 == 0 {
			t = tr
		}
		op := runSimOp(c, t, int64(i+1), audit)
		op.traced = t != nil
		rep.attempted++
		durs = append(durs, op.dur.Seconds())
		switch {
		case op.err != nil:
			rep.fail("simulation %d: %v", i, op.err)
			continue
		case ref == "":
			ref = op.digest
		case op.digest != ref:
			rep.fail("simulation %d: results digest %s differs from the first simulation's %s", i, op.digest, ref)
			continue
		}
		ops = append(ops, op)
	}
	window := interval{start, time.Now()}
	if len(ops) == 0 {
		return fmt.Errorf("no simulation completed")
	}
	first := ops[0].counters

	// The parallel engine's results must not depend on the shard count.
	if cfg.Shards > 0 {
		c1 := cfg
		c1.Shards = 1
		op := runSimOp(c1, nil, 0, false)
		rep.attempted++
		switch {
		case op.err != nil:
			rep.fail("Shards=1 reference: %v", op.err)
		case op.digest != ref:
			rep.fail("Shards=%d digest %s differs from the Shards=1 digest %s", cfg.Shards, ref, op.digest)
		default:
			rep.note("Shards=1 reference digest matches")
		}
	}
	rep.note("results digest %s (all %d simulations equal)", ref, len(ops))
	noteShape(rep, opts.workload, first)

	what := "stream generation and one build"
	if spec.replay {
		what = "stream generation, .btrace write and open, and one build"
	}
	setSetup(rep, m, setups, what)
	for k, iv := range setups {
		genS[k] /= m.slowdown(iv.start, iv.end)
	}
	var rawMS []float64
	for i := range ops {
		rawMS = append(rawMS, 1000*ops[i].dur.Seconds())
		ops[i] = ops[i].normalized(m)
	}
	slow := m.slowdown(window.start, window.end)
	rep.note("host slowdown %.3f over the window; host times below are divided by it per simulation (raw median %.1f ms)", slow, median(rawMS))

	var accPerS, allocMB, gcCycles, gcPause, opMS, builds, drives, audits []float64
	for _, o := range ops {
		accPerS = append(accPerS, o.accessesPerS())
		allocMB = append(allocMB, o.mem.allocMB)
		gcCycles = append(gcCycles, o.mem.gcCycles)
		gcPause = append(gcPause, o.mem.gcPauseMS)
		opMS = append(opMS, 1000*o.dur.Seconds())
		builds = append(builds, o.build.Seconds())
		drives = append(drives, o.drive.Seconds())
		audits = append(audits, o.audit.Seconds())
	}
	n := len(ops)
	rep.set("accesses_per_s", median(accPerS), fmt.Sprintf("median of %d simulations, %d accesses each", n, first.Accesses))
	rep.set("alloc_mb_per_run", median(allocMB), "TotalAlloc delta per simulation, median")
	rep.set("rss_mb", m.rssMB(window), rssDetail)
	rep.set("sim_cycles", float64(first.Cycles), "exact")
	rep.set("sim_flit_hops", float64(first.FlitHops), "exact")
	rep.set("req_per_s", ratio(float64(n), window.dur().Seconds()/slow),
		fmt.Sprintf("a request is one whole simulation; raw %.4g", ratio(float64(n), window.dur().Seconds())))
	rep.set("req_p50_ms", median(opMS), fmt.Sprintf("n=%d", n))
	v, how := p95(opMS)
	rep.set("req_p95_ms", v, how)
	if tr == nil {
		return nil
	}

	// Per-layer metrics of the traced run.
	rep.set("host.slowdown", slow, "window mean")
	rep.set("trace.gen_s", median(genS), fmt.Sprintf("median of %d set-ups", len(genS)))
	t := time.Now()
	decode, err := decodeNsPerAccess(cfg)
	if err != nil {
		rep.fail("decode pass: %v", err)
	}
	decode /= m.slowdown(t, time.Now())
	if spec.replay {
		rep.set("trace.decode_ns_per_access", decode, "mmap .btrace decode, all cores")
	} else {
		rep.set("trace.decode_ns_per_access", decode, "memoised stream replay, all cores")
	}
	rep.set("system.build_s", median(builds), fmt.Sprintf("median of %d builds", n))
	rep.set("go.gc_cycles_per_run", mean(gcCycles), "mean per simulation")
	rep.set("go.gc_pause_ms_per_run", mean(gcPause), "mean per simulation")
	setCounterMetrics(rep, first, 1, "per simulation")
	for _, name := range []string{"psim.drive_s", "psim.ns_per_event", "psim.speedup_vs_serial",
		"runner.cache_hit_ratio", "runner.coalesced", "runner.run_latency_p50_ms",
		"fleet.remote_hit_ratio", "fleet.proxied", "fleet.self_ms",
		"stashd.handler_ms", "stashd.shed_429", "stashd.shed_503"} {
		rep.set(name, 0, "layer not exercised by this workload")
	}
	if cfg.Shards > 0 {
		psimDrive := median(drives)
		rep.set("psim.drive_s", psimDrive, fmt.Sprintf("median of %d drives, Shards=%d", n, cfg.Shards))
		rep.set("psim.ns_per_event", 1e9*ratio(psimDrive, float64(first.Events)), "")
		// The serial engine on the same configuration (checker off, as
		// here), for the speed-up and the serial layer timings.
		c0 := cfg
		c0.Shards = 0
		serial := runSimOp(c0, tr, 0, true)
		rep.attempted++
		if serial.err != nil {
			rep.fail("serial reference: %v", serial.err)
		}
		serial = serial.normalized(m)
		rep.set("psim.speedup_vs_serial", ratio(serial.drive.Seconds(), psimDrive), "serial drive / psim drive, same configuration")
		rep.set("coherence.drive_s", serial.drive.Seconds(), "serial reference drive")
		rep.set("sim.ns_per_event", 1e9*ratio(serial.drive.Seconds(), float64(serial.counters.Events)), "serial reference drive")
		rep.set("coherence.audit_s", serial.audit.Seconds(), "serial reference audit")
	} else {
		rep.set("coherence.drive_s", median(drives), fmt.Sprintf("median of %d drives", n))
		rep.set("sim.ns_per_event", 1e9*ratio(median(drives), float64(first.Events)), "")
		rep.set("coherence.audit_s", median(audits), fmt.Sprintf("median of %d audits", n))
	}
	var tracedAcc, plainAcc, tracedMS, plainMS []float64
	for _, o := range ops {
		if o.traced {
			tracedAcc, tracedMS = append(tracedAcc, o.accessesPerS()), append(tracedMS, 1000*o.dur.Seconds())
		} else {
			plainAcc, plainMS = append(plainAcc, o.accessesPerS()), append(plainMS, 1000*o.dur.Seconds())
		}
	}
	rep.set("tracing.accesses_per_s_ratio", ratio(median(tracedAcc), median(plainAcc)),
		fmt.Sprintf("traced/untraced medians, %d vs %d simulations", len(tracedAcc), len(plainAcc)))
	rep.set("tracing.req_p50_ratio", ratio(median(tracedMS), median(plainMS)), "traced/untraced medians")
	return nil
}
