package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/stashd"
	"repro/internal/system"
	"repro/internal/testutil/leakcheck"
)

// tinyBase is a request base small enough that one simulation takes a few
// milliseconds (mirrors the stashd test suite).
func tinyBase() stashd.RunRequest {
	return stashd.RunRequest{
		Quick:           true,
		Cores:           4,
		AccessesPerCore: 1500,
		WorkloadScale:   0.25,
	}
}

func tinySweep() stashd.SweepRequest {
	return stashd.SweepRequest{
		Base:      tinyBase(),
		Workloads: []string{"blackscholes"},
		DirKinds:  []string{system.DirSparse, system.DirStash},
		Coverages: []float64{1, 0.5},
	}
}

// startWorker runs a real stashd worker (runner + HTTP layer) for the
// coordinator to dispatch to.
func startWorker(t *testing.T, cacheDir, origin string) *httptest.Server {
	t.Helper()
	r := runner.New(runner.Options{Workers: 2, CacheDir: cacheDir, Origin: origin})
	ts := httptest.NewServer(stashd.NewServer(r))
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})
	return ts
}

// startCoordinator builds a coordinator over the given worker URLs and
// serves it.
func startCoordinator(t *testing.T, opts CoordinatorOptions) (*httptest.Server, *Coordinator) {
	t.Helper()
	co, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co)
	t.Cleanup(ts.Close)
	return ts, co
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readSweep decodes a /sweep ndjson stream into job lines plus the final
// done line.
func readSweep(t *testing.T, resp *http.Response) ([]stashd.SweepLine, stashd.SweepLine) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	var jobs []stashd.SweepLine
	var done stashd.SweepLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line stashd.SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad sweep line %q: %v", sc.Text(), err)
		}
		if line.Type == "done" {
			done = line
		} else {
			jobs = append(jobs, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return jobs, done
}

// canonicalSweep renders job lines with every scheduling artifact (job IDs,
// wall-clock durations, cache provenance, arrival order) stripped, leaving
// only the simulation results. Two correct services must produce these
// bytes identically.
func canonicalSweep(t *testing.T, jobs []stashd.SweepLine) []byte {
	t.Helper()
	norm := append([]stashd.SweepLine(nil), jobs...)
	for i := range norm {
		norm[i].JobID = ""
		norm[i].DurationMS = 0
		norm[i].CacheHit = ""
	}
	sort.Slice(norm, func(i, j int) bool {
		a, b := norm[i], norm[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.DirKind != b.DirKind {
			return a.DirKind < b.DirKind
		}
		return a.Coverage < b.Coverage
	})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, line := range norm {
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// metricValue scrapes one counter from a /metrics page.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", sc.Text(), err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found on %s/metrics", name, url)
	return 0
}

// stubWorker is a scripted /internal/run endpoint for exercising the
// coordinator's dispatch machinery without paying for simulations.
func stubWorker(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/run", handler)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func stubResponse(w http.ResponseWriter, jobID string) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stashd.RunResponse{
		JobID:  jobID,
		Result: &system.Results{Cycles: 4242, AccessesPerKCycle: 1.5},
	})
}

func TestFleetSweepMatchesSingleStashd(t *testing.T) {
	leakcheck.Check(t)

	single := startWorker(t, "", "")
	resp := postJSON(t, single.URL+"/sweep", tinySweep())
	singleJobs, singleDone := readSweep(t, resp)

	w1 := startWorker(t, "", "w1")
	w2 := startWorker(t, "", "w2")
	fleetTS, _ := startCoordinator(t, CoordinatorOptions{Workers: []string{w1.URL, w2.URL}})
	resp = postJSON(t, fleetTS.URL+"/sweep", tinySweep())
	fleetJobs, fleetDone := readSweep(t, resp)

	if singleDone.Jobs != 4 || fleetDone.Jobs != 4 {
		t.Fatalf("done lines report %d and %d jobs, want 4 each", singleDone.Jobs, fleetDone.Jobs)
	}
	if singleDone.Failures != 0 || fleetDone.Failures != 0 {
		t.Fatalf("failures: single=%d fleet=%d", singleDone.Failures, fleetDone.Failures)
	}
	got, want := canonicalSweep(t, fleetJobs), canonicalSweep(t, singleJobs)
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet sweep differs from single stashd:\nfleet:\n%s\nsingle:\n%s", got, want)
	}
	// Every job ran on exactly one worker: the two workers' completion
	// counters sum to the sweep size — no duplicated dispatches, no drops.
	d1 := metricValue(t, w1.URL, "stashd_jobs_completed_total")
	d2 := metricValue(t, w2.URL, "stashd_jobs_completed_total")
	if d1+d2 != 4 {
		t.Fatalf("workers completed %v + %v jobs, want 4 total", d1, d2)
	}
}

func TestFleetRunDedupesInFlight(t *testing.T) {
	leakcheck.Check(t)
	const clients = 5

	var hits atomic.Int64
	release := make(chan struct{})
	ws := stubWorker(t, func(w http.ResponseWriter, req *http.Request) {
		hits.Add(1)
		select {
		case <-release:
		case <-req.Context().Done():
			return
		}
		stubResponse(w, "stub-1")
	})
	fleetTS, co := startCoordinator(t, CoordinatorOptions{Workers: []string{ws.URL}})

	body := tinyBase()
	body.Workload = "blackscholes"
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan *http.Response, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Post(fleetTS.URL+"/run", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				results <- nil
				return
			}
			results <- resp
		}()
	}
	// Release the single dispatch once every client has joined the shared
	// call.
	deadline := time.Now().Add(5 * time.Second)
	for {
		co.dedup.mu.Lock()
		joined := 0
		if len(co.dedup.calls) == 1 {
			joined = 1 + int(co.dedup.coalesced) // the leader plus every joiner
		}
		co.dedup.mu.Unlock()
		if joined == clients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients joined the in-flight call", joined, clients)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i := 0; i < clients; i++ {
		resp := <-results
		if resp == nil {
			t.Fatalf("client %d: request failed", i)
		}
		var rr stashd.RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || rr.JobID != "stub-1" {
			t.Fatalf("client %d: status %d jobID %q", i, resp.StatusCode, rr.JobID)
		}
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("worker saw %d dispatches for %d identical in-flight clients, want 1", got, clients)
	}
	if got := metricValue(t, fleetTS.URL, "stashd_fleet_coalesced_total"); got != clients-1 {
		t.Fatalf("stashd_fleet_coalesced_total = %v, want %d", got, clients-1)
	}
	if got := metricValue(t, fleetTS.URL, "stashd_fleet_proxied_total"); got != 1 {
		t.Fatalf("stashd_fleet_proxied_total = %v, want 1", got)
	}
}

func TestFleetFailoverWhenWorkerIsDown(t *testing.T) {
	leakcheck.Check(t)

	alive := stubWorker(t, func(w http.ResponseWriter, req *http.Request) {
		stubResponse(w, "served-by-alive")
	})
	dead := stubWorker(t, func(w http.ResponseWriter, req *http.Request) {})
	dead.Close() // unreachable from the start

	workers := []string{dead.URL, alive.URL}
	ring := NewRing(workers, 0)

	// Find a request whose key the ring assigns to the dead worker, so the
	// dispatch must fail over.
	var body stashd.RunRequest
	found := false
	for seed := int64(1); seed <= 64 && !found; seed++ {
		req := tinyBase()
		req.Workload = "blackscholes"
		req.Seed = seed
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		key, err := runner.Key(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key) == dead.URL {
			body, found = req, true
		}
	}
	if !found {
		t.Fatal("no seed in 1..64 hashed to the dead worker; the ring is not splitting keys")
	}

	fleetTS, _ := startCoordinator(t, CoordinatorOptions{Workers: workers})
	resp := postJSON(t, fleetTS.URL+"/run", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run through failover: status %d", resp.StatusCode)
	}
	var rr stashd.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.JobID != "served-by-alive" {
		t.Fatalf("jobID = %q, want the surviving worker's", rr.JobID)
	}
	if got := metricValue(t, fleetTS.URL, "stashd_fleet_failovers_total"); got < 1 {
		t.Fatalf("stashd_fleet_failovers_total = %v, want >= 1", got)
	}
	if got := metricValue(t, fleetTS.URL, "stashd_fleet_workers_healthy"); got != 1 {
		t.Fatalf("stashd_fleet_workers_healthy = %v, want 1", got)
	}
}

func TestFleetSweepClientDisconnectMidStream(t *testing.T) {
	leakcheck.Check(t)

	var served atomic.Int64
	release := make(chan struct{})
	ws := stubWorker(t, func(w http.ResponseWriter, req *http.Request) {
		if served.Add(1) == 1 {
			stubResponse(w, "first")
			return
		}
		// Later jobs hang until the coordinator abandons them.
		select {
		case <-release:
			stubResponse(w, "late")
		case <-req.Context().Done():
		}
	})
	fleetTS, co := startCoordinator(t, CoordinatorOptions{Workers: []string{ws.URL}})

	b, err := json.Marshal(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, fleetTS.URL+"/sweep", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read one streamed line, then walk away mid-sweep.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line before disconnect: %v", sc.Err())
	}
	var first stashd.SweepLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("bad first line %q: %v", sc.Text(), err)
	}
	if first.Type != "job" {
		t.Fatalf("first line type = %q, want job", first.Type)
	}
	cancel()

	// The abandoned jobs must unwind completely: the pending gauge returns
	// to zero without the stub ever being released (the coordinator's own
	// cancellation propagates through the dispatches), and leakcheck holds
	// the goroutine side of the same claim.
	deadline := time.Now().Add(10 * time.Second)
	for co.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d long after client disconnect", co.pending.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
}

func TestFleetShedsWithRetryAfter(t *testing.T) {
	leakcheck.Check(t)

	t.Run("rate", func(t *testing.T) {
		leakcheck.Check(t)
		ws := stubWorker(t, func(w http.ResponseWriter, req *http.Request) {
			stubResponse(w, "ok")
		})
		fleetTS, _ := startCoordinator(t, CoordinatorOptions{
			Workers:    []string{ws.URL},
			RatePerSec: 0.001, // one token, then a very long refill
			Burst:      1,
		})
		body := tinyBase()
		body.Workload = "blackscholes"
		resp := postJSON(t, fleetTS.URL+"/run", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first run: status %d", resp.StatusCode)
		}
		resp = postJSON(t, fleetTS.URL+"/run", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("second run: status %d, want 429", resp.StatusCode)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
		}
		if got := metricValue(t, fleetTS.URL, "stashd_shed_rate_total"); got != 1 {
			t.Fatalf("stashd_shed_rate_total = %v, want 1", got)
		}
	})

	t.Run("pending", func(t *testing.T) {
		leakcheck.Check(t)
		release := make(chan struct{})
		ws := stubWorker(t, func(w http.ResponseWriter, req *http.Request) {
			select {
			case <-release:
				stubResponse(w, "slow")
			case <-req.Context().Done():
			}
		})
		fleetTS, co := startCoordinator(t, CoordinatorOptions{
			Workers:    []string{ws.URL},
			MaxPending: 1,
		})
		body := tinyBase()
		body.Workload = "blackscholes"
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		firstDone := make(chan *http.Response, 1)
		go func() {
			resp, err := http.Post(fleetTS.URL+"/run", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				firstDone <- nil
				return
			}
			firstDone <- resp
		}()
		deadline := time.Now().Add(5 * time.Second)
		for co.pending.Load() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("first run never became pending")
			}
			time.Sleep(time.Millisecond)
		}

		other := body
		other.Seed = 999 // a different job, so it cannot coalesce
		resp := postJSON(t, fleetTS.URL+"/run", other)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("over-bound run: status %d, want 503", resp.StatusCode)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
		}
		if got := metricValue(t, fleetTS.URL, "stashd_shed_queue_total"); got != 1 {
			t.Fatalf("stashd_shed_queue_total = %v, want 1", got)
		}

		close(release)
		first := <-firstDone
		if first == nil {
			t.Fatal("first run: request failed")
		}
		first.Body.Close()
		if first.StatusCode != http.StatusOK {
			t.Fatalf("first run: status %d", first.StatusCode)
		}
	})
}

func TestFleetServesRepeatsFromSharedStore(t *testing.T) {
	leakcheck.Check(t)

	dir := t.TempDir()
	w1 := startWorker(t, dir, "w1")
	fleetTS, _ := startCoordinator(t, CoordinatorOptions{
		Workers:  []string{w1.URL},
		StoreDir: dir,
	})
	body := tinyBase()
	body.Workload = "blackscholes"

	resp := postJSON(t, fleetTS.URL+"/run", body)
	var miss stashd.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&miss); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || miss.CacheHit != "" {
		t.Fatalf("first run: status %d cacheHit %q, want a dispatched miss", resp.StatusCode, miss.CacheHit)
	}

	resp = postJSON(t, fleetTS.URL+"/run", body)
	var hit stashd.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hit.CacheHit != runner.HitRemote {
		t.Fatalf("repeat run cacheHit = %q, want %q", hit.CacheHit, runner.HitRemote)
	}
	if hit.Result == nil || miss.Result == nil || hit.Result.Cycles != miss.Result.Cycles {
		t.Fatalf("store hit result differs from the original run")
	}
	if got := metricValue(t, fleetTS.URL, "stashd_fleet_remote_hits_total"); got != 1 {
		t.Fatalf("stashd_fleet_remote_hits_total = %v, want 1", got)
	}
	if got := metricValue(t, fleetTS.URL, "stashd_fleet_proxied_total"); got != 1 {
		t.Fatalf("stashd_fleet_proxied_total = %v, want 1: the repeat must not reach a worker", got)
	}
}

func TestFleetMetricsPage(t *testing.T) {
	leakcheck.Check(t)
	ws := stubWorker(t, func(w http.ResponseWriter, req *http.Request) {
		stubResponse(w, "ok")
	})
	fleetTS, _ := startCoordinator(t, CoordinatorOptions{Workers: []string{ws.URL}})
	if got := metricValue(t, fleetTS.URL, "stashd_fleet_workers"); got != 1 {
		t.Fatalf("stashd_fleet_workers = %v, want 1", got)
	}
	resp, err := http.Get(fleetTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stashd_fleet_pending_jobs",
		"stashd_fleet_coalesced_total",
		"stashd_fleet_remote_hits_total",
		"stashd_fleet_failovers_total",
		"stashd_shed_rate_total",
		"stashd_shed_queue_total",
		fmt.Sprintf("stashd_fleet_worker_outstanding{worker=%q}", ws.URL),
	} {
		if !strings.Contains(page.String(), want) {
			t.Fatalf("metrics page missing %s:\n%s", want, page.String())
		}
	}
}
