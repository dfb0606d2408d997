package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/stashd"
	"repro/internal/system"
	"repro/internal/trace"
	wl "repro/internal/workloads"
)

// The service-fleet workload: a fleet.Coordinator over two stashd workers,
// all in this process and serving over loopback HTTP. Each worker wraps a
// runner with one simulation worker; the workers share one content-addressed
// result store, fresh in every set-up. A closed-loop client posts /run and
// waits for each reply before sending the next.

const (
	serviceWorkers = 2
	// serviceClients is one: with two, both clients' fresh simulations ran
	// at once on a 2-CPU host, hit requests waited behind them for a CPU,
	// and req_p50_ms moved 20% between runs of the same seed.
	serviceClients = 1
	// freshEvery: one request in every block of this many carries a fresh
	// seed and runs a real simulation plus a store write; the others repeat
	// a pool config (answered from the shared store, the dedup table or a
	// runner cache). Which slot of a block is fresh is drawn from the seed.
	freshEvery = 4
)

// poolRequests is the small pool of quick-machine configs repeat requests
// draw from; their seeds come from the run seed. The fresh-seed requests
// use the first entry's machine.
var poolRequests = []stashd.RunRequest{
	{Workload: "canneal", DirKind: system.DirStash, Coverage: 0.125},
	{Workload: "canneal", DirKind: system.DirSparse, Coverage: 0.125},
	{Workload: "barnes", DirKind: system.DirStash, Coverage: 0.125},
	{Workload: "blackscholes", DirKind: system.DirStash, Coverage: 0.125},
	{Workload: "ocean", DirKind: system.DirSparse, Coverage: 0.25},
	{Workload: "water", DirKind: system.DirStash, Coverage: 0.5},
}

// quickRequest completes a request into the quick 4-core machine.
func quickRequest(q stashd.RunRequest, seed int64, small bool) stashd.RunRequest {
	q.Quick = true
	q.Cores = 4
	q.AccessesPerCore = 2000
	if small {
		q.AccessesPerCore = 500
	}
	q.Seed = seed
	return q
}

// positiveSeed maps any value to a seed in [1, 2^62).
func positiveSeed(v int64) int64 {
	return int64(uint64(v)%(1<<62-1)) + 1
}

// request is one prepared /run call.
type request struct {
	body  []byte
	key   string
	cfg   system.Config
	fresh bool
}

func prepare(q stashd.RunRequest, fresh bool) (request, error) {
	cfg, err := q.Config()
	if err != nil {
		return request{}, err
	}
	key, err := runner.Key(cfg)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(q)
	return request{body: body, key: key, cfg: cfg, fresh: fresh}, err
}

// requestGen yields one client's request sequence, a pure function of the
// run seed and the client index.
type requestGen struct {
	rng   *rand.Rand
	pool  []request
	seed  int64
	small bool
	n     int // requests generated so far
	fresh int // the fresh slot of the current block
}

func newRequestGen(seed int64, client int, pool []request, small bool) *requestGen {
	return &requestGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), pool: pool,
		seed: seed*31 + int64(client), small: small}
}

func (g *requestGen) next() (request, error) {
	slot := g.n % freshEvery
	if slot == 0 {
		g.fresh = g.rng.Intn(freshEvery)
	}
	g.n++
	if slot != g.fresh {
		return g.pool[g.rng.Intn(len(g.pool))], nil
	}
	q := quickRequest(poolRequests[0], positiveSeed(g.rng.Int63()^g.seed), g.small)
	return prepare(q, true)
}

func poolFor(seed int64, small bool) ([]request, error) {
	pool := make([]request, len(poolRequests))
	for i, q := range poolRequests {
		var err error
		pool[i], err = prepare(quickRequest(q, positiveSeed(seed*7919+int64(i)), small), false)
		if err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// spanHandler is the benchmark's wrapper around a tier's ServeHTTP: with
// tracing on it records one span per request. Coordinator spans are keyed
// by the job key the client sent; worker spans find their parent through
// the key of the config in the dispatch body.
type spanHandler struct {
	name   string
	next   http.Handler
	tr     *tracer
	worker bool
	active *activeSpans
}

// activeSpans maps a job key to the coordinator span serving it.
type activeSpans struct {
	mu sync.Mutex
	m  map[string]*span
}

func (a *activeSpans) put(key string, s *span) {
	a.mu.Lock()
	a.m[key] = s
	a.mu.Unlock()
}

func (a *activeSpans) take(key string) *span {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.m[key]
	delete(a.m, key)
	return s
}

const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
	hdrKey    = "X-Perfbench-Key"
)

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if h.tr == nil || (!h.worker && req.Header.Get(hdrReq) == "") {
		h.next.ServeHTTP(w, req)
		return
	}
	if !h.worker {
		id, _ := strconv.ParseInt(req.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(req.Header.Get(hdrParent), 10, 64)
		sp := h.tr.begin(h.name, parent, id)
		h.active.put(req.Header.Get(hdrKey), sp)
		h.next.ServeHTTP(w, req)
		sp.finish()
		return
	}
	// A worker span: recover the job key from the dispatch body; a
	// dispatch no traced coordinator span is waiting on is not recorded.
	body, err := io.ReadAll(req.Body)
	req.Body = io.NopCloser(bytes.NewReader(body))
	var parent *span
	if err == nil {
		var ir stashd.InternalRunRequest
		if json.Unmarshal(body, &ir) == nil {
			if key, err := runner.Key(ir.Config); err == nil {
				parent = h.active.take(key)
			}
		}
	}
	if parent == nil {
		h.next.ServeHTTP(w, req)
		return
	}
	sp := h.tr.begin(h.name, parent.ID, parent.Req)
	h.next.ServeHTTP(w, req)
	sp.finish()
}

// fleetService is one running coordinator-plus-workers deployment.
type fleetService struct {
	url     string
	runners []*runner.Runner
	coord   *fleet.Coordinator
	workers []*stashd.Server
	servers []*http.Server
	wg      sync.WaitGroup
	client  *http.Client
	active  *activeSpans
}

// startFleet starts the workers and the coordinator on loopback ports.
func startFleet(store string, tr *tracer) (*fleetService, error) {
	f := &fleetService{
		active: &activeSpans{m: map[string]*span{}},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}},
	}
	var urls []string
	for i := 0; i < serviceWorkers; i++ {
		sp := tr.begin("runner.new", 0, 0)
		r := runner.New(runner.Options{Workers: 1, CacheDir: store, Origin: fmt.Sprintf("w%d", i)})
		sp.finish()
		f.runners = append(f.runners, r)
		sp = tr.begin("stashd.new_server", 0, 0)
		s := stashd.NewServerWith(r, stashd.Options{MaxQueue: 8})
		sp.finish()
		f.workers = append(f.workers, s)
		url, err := f.serve(&spanHandler{name: "stashd.serve", next: s, tr: tr, worker: true, active: f.active})
		if err != nil {
			f.stop()
			return nil, err
		}
		urls = append(urls, url)
	}
	sp := tr.begin("fleet.new_coordinator", 0, 0)
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
		Workers:    urls,
		StoreDir:   store,
		MaxPending: 8,
		RatePerSec: 1e6,
		Burst:      1e6,
	})
	sp.finish()
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	f.url, err = f.serve(&spanHandler{name: "fleet.serve", next: coord, tr: tr, active: f.active})
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleetService) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts the servers down (coordinator first), closes the runners and
// waits for every serving goroutine.
func (f *fleetService) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].Shutdown(ctx)
	}
	f.wg.Wait()
	for _, r := range f.runners {
		r.Close()
	}
	f.client.CloseIdleConnections()
}

// reply is one completed /run call.
type reply struct {
	key      string
	fresh    bool
	status   int
	latency  time.Duration
	cacheHit string
	result   *system.Results
	canon    string
	traced   bool
	err      error
}

// post sends one request and reads the whole reply.
func (f *fleetService) post(ctx context.Context, r request, tr *tracer, req int64) reply {
	out := reply{key: r.key, fresh: r.fresh, traced: tr != nil}
	root := tr.begin("client.run", 0, req)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/run", bytes.NewReader(r.body))
	if err != nil {
		out.err = err
		return out
	}
	hr.Header.Set("Content-Type", "application/json")
	if tr != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrParent, strconv.FormatInt(root.id(), 10))
		hr.Header.Set(hdrKey, r.key)
	}
	t := time.Now()
	resp, err := f.client.Do(hr)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
		if err == nil && resp.StatusCode == http.StatusOK {
			var rr stashd.RunResponse
			if err = json.Unmarshal(body, &rr); err == nil {
				out.cacheHit, out.result = rr.CacheHit, rr.Result
			}
		}
	}
	out.latency = time.Since(t)
	root.finish()
	out.err = err
	if err == nil && out.status != http.StatusOK {
		out.err = fmt.Errorf("HTTP %d", out.status)
	}
	if out.err == nil && out.result == nil {
		out.err = errors.New("reply without a result")
	}
	if out.err == nil {
		b, err := json.Marshal(out.result)
		out.canon, out.err = string(b), err
	}
	return out
}

// fleetCounters are the coordinator's and workers' counters, scraped from
// their GET /metrics pages and runner.Metrics.
type fleetCounters struct {
	remoteHits, proxied, shed429, shed503 float64
	runnerHits, runnerMisses, coalesced   float64
	runLatencyP50MS                       []float64
}

func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

func (f *fleetService) counters(tr *tracer) fleetCounters {
	var c fleetCounters
	cm := scrape(f.coord)
	c.remoteHits = cm["stashd_fleet_remote_hits_total"]
	c.proxied = cm["stashd_fleet_proxied_total"]
	c.shed429 = cm["stashd_shed_rate_total"]
	c.shed503 = cm["stashd_shed_queue_total"]
	for i, w := range f.workers {
		wm := scrape(w)
		c.shed429 += wm["stashd_shed_rate_total"]
		c.shed503 += wm["stashd_shed_queue_total"]
		sp := tr.begin("runner.metrics", 0, 0)
		m := f.runners[i].Metrics()
		sp.finish()
		c.runnerHits += float64(m.CacheHits())
		c.runnerMisses += float64(m.CacheMisses)
		c.coalesced += float64(m.JobsCoalesced)
		c.runLatencyP50MS = append(c.runLatencyP50MS, float64(m.RunLatencyP50)/1e6)
	}
	return c
}

// setupService starts a fleet over a fresh store and warms it with one
// request per pool config, so repeats in the window are cache hits.
func setupService(dir string, pool []request, tr *tracer) (*fleetService, error) {
	store := filepath.Join(dir, "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		return nil, err
	}
	root := tr.begin("setup", 0, 0)
	defer root.finish()
	f, err := startFleet(store, tr)
	if err != nil {
		return nil, err
	}
	for _, r := range pool {
		if rep := f.post(context.Background(), r, nil, 0); rep.err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up %s: %w", r.cfg.Workload, rep.err)
		}
	}
	return f, nil
}

// runService runs the service-fleet workload.
func runService(opts *options, tr *tracer, rep *report) error {
	m := opts.meter
	var setups []interval
	var svc *fleetService
	var pool []request
	for k := 0; k < opts.setups; k++ {
		seed := opts.seed
		if k < opts.setups-1 {
			seed = decoySeed(opts.seed, k)
		}
		p, err := poolFor(seed, opts.small)
		if err != nil {
			return err
		}
		dir := filepath.Join(opts.dir, fmt.Sprintf("setup%d", k))
		t := time.Now()
		f, err := setupService(dir, p, tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, interval{t, time.Now()})
		if k < opts.setups-1 {
			f.stop()
			os.RemoveAll(dir)
		} else {
			svc, pool = f, p
		}
	}
	defer svc.stop()

	// The timed window: closed-loop clients. A traced run traces every
	// other one-second slice, so the overhead is measured in one process.
	before := svc.counters(nil)
	m0 := readMem()
	start := time.Now()
	deadline := start.Add(opts.window)
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(60*time.Second))
	defer cancel()
	replies := make([][]reply, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newRequestGen(opts.seed, c, pool, opts.small)
			for n := 0; time.Now().Before(deadline); n++ {
				r, err := gen.next()
				if err != nil {
					replies[c] = append(replies[c], reply{err: err})
					continue
				}
				var t *tracer
				if int(time.Since(start)/time.Second)%2 == 0 {
					t = tr
				}
				replies[c] = append(replies[c], svc.post(ctx, r, t, int64(c+1)<<32|int64(n+1)))
			}
		}(c)
	}
	wg.Wait()
	window := interval{start, time.Now()}
	mem := memBetween(m0, readMem())
	after := svc.counters(tr)

	// The gate: every reply 200, and every answer for a key equal to that
	// key's first answer.
	first := map[string]string{}
	var all []reply
	var lat, tracedMS, plainMS []float64
	var fresh simCounters
	var freshN, hits int
	for _, rs := range replies {
		for _, r := range rs {
			rep.attempted++
			if r.err != nil {
				rep.fail("request %s: %v", r.key, r.err)
				continue
			}
			if prev, ok := first[r.key]; !ok {
				first[r.key] = r.canon
			} else if prev != r.canon {
				rep.fail("request %s: reply differs from the key's first answer", r.key)
				continue
			}
			all = append(all, r)
			ms := 1000 * r.latency.Seconds()
			lat = append(lat, ms)
			if r.traced {
				tracedMS = append(tracedMS, ms)
			} else {
				plainMS = append(plainMS, ms)
			}
			if r.cacheHit != "" {
				hits++
			}
			if r.fresh && r.cacheHit == "" {
				fresh.add(countersFromResults(r.result))
				freshN++
			}
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("no request completed")
	}

	// The first answer of every pool config, and of the first fresh
	// requests, must equal a local simulation of the same config.
	verified := 0
	var poolSum simCounters
	var poolCanon []string
	for _, r := range pool {
		canon, ok := first[r.key]
		if !ok {
			continue
		}
		res, err := checkLocal(r.cfg, canon)
		rep.attempted++
		verified++
		if err != nil {
			rep.fail("pool config %s/%s: %v", r.cfg.Workload, r.cfg.DirKind, err)
			continue
		}
		poolSum.add(countersFromResults(res))
		poolCanon = append(poolCanon, canon)
	}
	checkedFresh := 0
	for _, r := range all {
		if !r.fresh || checkedFresh == 2 {
			continue
		}
		checkedFresh++
		rep.attempted++
		verified++
		if _, err := checkLocal(r.result.Config, r.canon); err != nil {
			rep.fail("fresh request %s: %v", r.key, err)
		}
	}
	poolN := len(poolCanon)
	rep.note("results digest %s (first answers of %d pool configs; %d answers checked against local simulations)",
		digestBytes([]byte(strings.Join(poolCanon, "\n"))), poolN, verified)
	share := ratio(float64(hits), float64(len(all)))
	verdict := "ok"
	if err := checkShape(opts.workload, 0, share); err != nil {
		verdict = "VIOLATED: " + err.Error()
	}
	rep.note("shape cache_hit_share=%.3f (%d of %d replies; %d fresh simulations): %s", share, hits, len(all), freshN, verdict)

	setSetup(rep, m, setups, fmt.Sprintf("start %d workers and the coordinator, warm %d pool configs", serviceWorkers, len(pool)))
	slow := m.slowdown(window.start, window.end)
	rep.note("host slowdown %.3f over the window; host times below are divided by it (raw p50 %.3f ms)", slow, median(lat))
	for i := range lat {
		lat[i] /= slow
	}
	elapsed := time.Duration(float64(window.dur()) / slow)
	n := len(all)
	rep.set("accesses_per_s", ratio(float64(fresh.Accesses), elapsed.Seconds()),
		fmt.Sprintf("accesses simulated by %d fresh requests per host second", freshN))
	rep.set("alloc_mb_per_run", ratio(mem.allocMB, float64(n)), "TotalAlloc delta per request, whole process")
	rep.set("rss_mb", m.rssMB(window), rssDetail)
	rep.set("sim_cycles", ratio(float64(poolSum.Cycles), float64(poolN)), fmt.Sprintf("mean over %d pool configs; exact", poolN))
	rep.set("sim_flit_hops", ratio(float64(poolSum.FlitHops), float64(poolN)), fmt.Sprintf("mean over %d pool configs; exact", poolN))
	rep.set("req_per_s", ratio(float64(n), elapsed.Seconds()),
		fmt.Sprintf("%d closed-loop clients; raw %.4g", serviceClients, ratio(float64(n), window.dur().Seconds())))
	rep.set("req_p50_ms", median(lat), fmt.Sprintf("n=%d", n))
	v, how := p95(lat)
	rep.set("req_p95_ms", v, how)
	if tr == nil {
		return nil
	}

	// Per-layer metrics of the traced run.
	rep.set("host.slowdown", slow, "window mean")
	setCounterMetrics(rep, poolSum, poolN, fmt.Sprintf("per pool config, mean of %d", poolN))
	rep.set("go.gc_cycles_per_run", ratio(mem.gcCycles, float64(n)), "per request")
	rep.set("go.gc_pause_ms_per_run", ratio(mem.gcPauseMS, float64(n)), "per request")
	hitsD := after.runnerHits - before.runnerHits
	missD := after.runnerMisses - before.runnerMisses
	rep.set("runner.cache_hit_ratio", ratio(hitsD, hitsD+missD), fmt.Sprintf("%.0f hits, %.0f misses over both workers", hitsD, missD))
	rep.set("runner.coalesced", after.coalesced-before.coalesced, "window total, both workers")
	rep.set("runner.run_latency_p50_ms", mean(after.runLatencyP50MS)/slow, "mean of the workers' RunLatencyP50")
	remote, proxied := after.remoteHits-before.remoteHits, after.proxied-before.proxied
	rep.set("fleet.remote_hit_ratio", ratio(remote, remote+proxied), "shared-store hits / (hits + dispatches)")
	rep.set("fleet.proxied", proxied, "window total")
	rep.set("stashd.shed_429", after.shed429-before.shed429, "window total, all tiers")
	rep.set("stashd.shed_503", after.shed503-before.shed503, "window total, all tiers")
	selfMS, handlerMS := fleetSpanTimes(tr)
	rep.set("fleet.self_ms", median(selfMS)/slow, fmt.Sprintf("coordinator span minus worker span, median of %d", len(selfMS)))
	rep.set("stashd.handler_ms", median(handlerMS)/slow, fmt.Sprintf("worker span, median of %d", len(handlerMS)))
	rep.set("tracing.req_p50_ratio", ratio(median(tracedMS), median(plainMS)),
		fmt.Sprintf("traced/untraced medians, %d vs %d requests", len(tracedMS), len(plainMS)))
	var tracedAcc, plainAcc float64
	var tracedT, plainT float64
	for _, r := range all {
		acc := 0.0
		if r.fresh && r.cacheHit == "" {
			acc = float64(r.result.Loads + r.result.Stores)
		}
		if r.traced {
			tracedAcc, tracedT = tracedAcc+acc, tracedT+r.latency.Seconds()
		} else {
			plainAcc, plainT = plainAcc+acc, plainT+r.latency.Seconds()
		}
	}
	rep.set("tracing.accesses_per_s_ratio", ratio(ratio(tracedAcc, tracedT), ratio(plainAcc, plainT)),
		"fresh accesses per second of request time, traced/untraced")

	// The simulation layers, timed outside the service on the fresh
	// requests' machine.
	return serviceSimLayers(m, opts.seed, pool[0].cfg, rep)
}

// checkLocal simulates cfg in this process and compares the canonical JSON
// of its results with a service answer.
func checkLocal(cfg system.Config, canon string) (*system.Results, error) {
	res, err := system.Run(cfg)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	if string(b) != canon {
		return nil, errors.New("service answer differs from a local simulation")
	}
	return res, nil
}

// fleetSpanTimes pairs each coordinator span with its worker span.
func fleetSpanTimes(tr *tracer) (selfMS, handlerMS []float64) {
	spans := tr.snapshot()
	worker := map[int64]float64{}
	for _, s := range spans {
		if s.Name == "stashd.serve" {
			d := float64(s.End-s.Start) / 1e6
			handlerMS = append(handlerMS, d)
			worker[s.Parent] += d
		}
	}
	for _, s := range spans {
		if s.Name == "fleet.serve" {
			selfMS = append(selfMS, float64(s.End-s.Start)/1e6-worker[s.ID])
		}
	}
	return selfMS, handlerMS
}

// serviceSimLayers times stream generation, replay, build, drive and audit
// of one fresh-request machine directly, so the service workload reports
// the simulation layers its workers run.
func serviceSimLayers(m *hostMeter, seed int64, cfg system.Config, rep *report) error {
	cfg.Seed = decoySeed(seed, 99)
	mix, err := wl.Get(cfg.Workload)
	if err != nil {
		return err
	}
	mix = mix.Scaled(cfg.WorkloadScale)
	t := time.Now()
	for i := 0; i < cfg.Cores; i++ {
		s, err := trace.NewStream(mix, i, cfg.Cores, cfg.AccessesPerCore, cfg.Seed)
		if err != nil {
			return err
		}
		drain(s)
	}
	gen := interval{t, time.Now()}
	decode, err := decodeNsPerAccess(cfg)
	if err != nil {
		return err
	}
	decodeIv := interval{gen.end, time.Now()}
	op := runSimOp(cfg, nil, 0, true)
	rep.attempted++
	if op.err != nil {
		rep.fail("local simulation: %v", op.err)
	}
	op = op.normalized(m)
	rep.set("trace.gen_s", gen.dur().Seconds()/m.slowdown(gen.start, gen.end), "one fresh-request machine's streams")
	rep.set("trace.decode_ns_per_access", decode/m.slowdown(decodeIv.start, decodeIv.end), "memoised stream replay")
	rep.set("system.build_s", op.build.Seconds(), "one fresh-request machine")
	rep.set("coherence.drive_s", op.drive.Seconds(), "one fresh-request machine")
	rep.set("sim.ns_per_event", 1e9*ratio(op.drive.Seconds(), float64(op.counters.Events)), "one fresh-request machine")
	rep.set("coherence.audit_s", op.audit.Seconds(), "one fresh-request machine")
	for _, name := range []string{"psim.drive_s", "psim.ns_per_event", "psim.speedup_vs_serial"} {
		rep.set(name, 0, "layer not exercised by this workload")
	}
	return nil
}
