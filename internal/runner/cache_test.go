package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/system"
	"repro/internal/testutil/leakcheck"
)

// TestDiskCachePutRemovesTempOnRenameFailure is the regression test for the
// temp-file orphan: a failed rename must clean up after itself, because in a
// fleet-shared cache directory the leak compounds across workers.
func TestDiskCachePutRemovesTempOnRenameFailure(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	d := newDiskCache(dir, "node-a")
	injected := errors.New("injected rename failure")
	d.rename = func(_, _ string) error { return injected }

	cfg := tinyConfig(1)
	key, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.put(key, cfg, fakeResults(cfg)); !errors.Is(err, injected) {
		t.Fatalf("put error = %v, want injected rename failure", err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("failed put orphaned temp files: %v", tmps)
	}
	if _, _, ok := d.get(key); ok {
		t.Fatal("failed put still produced a readable entry")
	}

	// The same writer succeeds once rename works again.
	d.rename = os.Rename
	if err := d.put(key, cfg, fakeResults(cfg)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.get(key); !ok {
		t.Fatal("entry unreadable after successful put")
	}
}

// TestDiskCacheOpenSweepsStaleTemps: opening a cache directory collects temp
// files orphaned by crashed writers — but only old ones, so the sweep cannot
// race a peer that is mid-write right now.
func TestDiskCacheOpenSweepsStaleTemps(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	stale := filepath.Join(dir, "deadbeef.tmp123")
	fresh := filepath.Join(dir, "cafef00d.tmp456")
	entry := filepath.Join(dir, "deadbeef.json")
	for _, p := range []string{stale, fresh, entry} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	newDiskCache(dir, "node-a")

	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the open sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file (a possible live peer write) was removed: %v", err)
	}
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("real cache entry was removed: %v", err)
	}
}

// TestPeerHitProvenance: a node probing the shared store distinguishes its
// own entries (disk) from entries another node populated (peer).
func TestPeerHitProvenance(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := tinyConfig(7)

	ra := New(Options{Workers: 1, CacheDir: dir, Origin: "worker-a"})
	ra.execute = func(c system.Config) (*system.Results, error) { return fakeResults(c), nil }
	if _, err := ra.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	ra.Close()

	// The writer itself, restarted, sees its own entry as a plain disk hit.
	ra2 := New(Options{Workers: 1, CacheDir: dir, Origin: "worker-a"})
	defer ra2.Close()
	ja, err := ra2.Submit(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ja.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hit := ja.Status().CacheHit; hit != HitDisk {
		t.Fatalf("own entry reported as %q, want %q", hit, HitDisk)
	}

	// A different node sharing the directory sees a peer hit.
	rb := New(Options{Workers: 1, CacheDir: dir, Origin: "worker-b"})
	defer rb.Close()
	rb.execute = func(c system.Config) (*system.Results, error) {
		t.Error("peer node re-simulated a config already in the shared store")
		return fakeResults(c), nil
	}
	jb, err := rb.Submit(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := jb.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != fakeResults(cfg).Cycles {
		t.Fatalf("peer hit returned wrong result: %+v", res)
	}
	if hit := jb.Status().CacheHit; hit != HitPeer {
		t.Fatalf("cross-node entry reported as %q, want %q", hit, HitPeer)
	}
	if m := rb.Metrics(); m.CacheHitsPeer != 1 || m.CacheHits() != 1 {
		t.Fatalf("peer hit not counted: %+v", m)
	}
}

// slowStore delays every disk probe, holding the historical race window
// (submit's unlocked disk IO) open wide enough for tests to drive identical
// submissions through it deterministically.
type slowStore struct {
	inner resultStore
	delay time.Duration
	hold  chan struct{} // when non-nil, every probe also waits for its close
	gets  atomic.Int64
}

func (s *slowStore) get(key string) (*system.Results, string, bool) {
	s.gets.Add(1)
	time.Sleep(s.delay)
	if s.hold != nil {
		<-s.hold
	}
	return s.inner.get(key)
}

func (s *slowStore) put(key string, cfg system.Config, res *system.Results) error {
	return s.inner.put(key, cfg, res)
}

// TestSubmitDiskProbeSingleFlight is the regression test for the Submit
// slip-past window: two identical submissions racing through the unlocked
// disk probe must coalesce onto one real run, not enqueue two.
func TestSubmitDiskProbeSingleFlight(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	r := New(Options{Workers: 4, CacheDir: dir})
	defer r.Close()
	store := &slowStore{inner: r.disk, delay: 50 * time.Millisecond}
	r.disk = store
	var executions atomic.Int64
	release := make(chan struct{})
	r.execute = func(c system.Config) (*system.Results, error) {
		executions.Add(1)
		<-release
		return fakeResults(c), nil
	}

	cfg := tinyConfig(3)
	const submitters = 8
	var wg sync.WaitGroup
	jobs := make([]*Job, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := r.Submit(context.Background(), cfg)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	close(release)
	for _, j := range jobs {
		if j == nil {
			t.Fatal("a submission failed")
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	if n := executions.Load(); n != 1 {
		t.Fatalf("identical racing submissions executed %d times, want 1", n)
	}
	if n := store.gets.Load(); n != 1 {
		t.Fatalf("disk probed %d times for one key, want 1 (single-flight)", n)
	}
	if m := r.Metrics(); m.JobsStarted != 1 {
		t.Fatalf("JobsStarted = %d, want 1", m.JobsStarted)
	}
}

// TestSubmitProbeWaiterHonorsCancellation: a submission parked behind
// another submitter's disk probe must honor its own context instead of
// waiting out the probe.
func TestSubmitProbeWaiterHonorsCancellation(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	r := New(Options{Workers: 1, CacheDir: dir})
	defer r.Close()
	r.disk = &slowStore{inner: r.disk, delay: 250 * time.Millisecond}
	r.execute = func(c system.Config) (*system.Results, error) { return fakeResults(c), nil }

	cfg := tinyConfig(4)
	go r.Submit(context.Background(), cfg) // the prober
	time.Sleep(20 * time.Millisecond)      // let it claim the probe slot

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := r.Submit(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("parked submit error = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("cancelled waiter still waited %v for the probe", waited)
	}
}

// waitForProbe blocks until the store has seen n probes; the prober
// publishes its job in the inflight table before it probes.
func waitForProbe(t *testing.T, s *slowStore, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.gets.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("store probed %d times, want %d", s.gets.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitDuringProbeJoinsTheProbingJob: an identical submission that
// arrives while the disk probe runs joins the probing job itself, and
// shares its cache-hit provenance.
func TestSubmitDuringProbeJoinsTheProbingJob(t *testing.T) {
	for _, tc := range []struct{ origin, want string }{
		{"worker-a", HitDisk},
		{"worker-b", HitPeer},
	} {
		t.Run(tc.want, func(t *testing.T) {
			leakcheck.Check(t)
			dir := t.TempDir()
			cfg := tinyConfig(5)
			seed := New(Options{Workers: 1, CacheDir: dir, Origin: "worker-a"})
			seed.execute = func(c system.Config) (*system.Results, error) { return fakeResults(c), nil }
			if _, err := seed.Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			seed.Close()

			r := New(Options{Workers: 1, CacheDir: dir, Origin: tc.origin})
			defer r.Close()
			store := &slowStore{inner: r.disk, hold: make(chan struct{})}
			r.disk = store
			r.execute = func(c system.Config) (*system.Results, error) {
				t.Error("a disk-cached config was simulated")
				return fakeResults(c), nil
			}

			first := make(chan *Job, 1)
			go func() {
				j, err := r.Submit(context.Background(), cfg)
				if err != nil {
					t.Error(err)
				}
				first <- j
			}()
			waitForProbe(t, store, 1)
			joiner, err := r.Submit(context.Background(), cfg)
			close(store.hold)
			if err != nil {
				t.Fatal(err)
			}
			prober := <-first
			if prober == nil || joiner.ID() != prober.ID() {
				t.Fatalf("submission during the probe got job %s, want the probing job", joiner.ID())
			}
			if _, err := joiner.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if n := store.gets.Load(); n != 1 {
				t.Fatalf("disk probed %d times, want 1", n)
			}
			if m := r.Metrics(); m.JobsCoalesced != 1 {
				t.Fatalf("JobsCoalesced = %d, want 1", m.JobsCoalesced)
			}
			if hit := joiner.Status().CacheHit; hit != tc.want {
				t.Fatalf("shared provenance = %q, want %q", hit, tc.want)
			}
		})
	}
}

// TestCloseDuringProbeFailsTheJob: Close while a disk probe runs fails the
// probing job with ErrClosed, so every submission that joined it returns
// from Wait instead of waiting on a job no worker will ever run.
func TestCloseDuringProbeFailsTheJob(t *testing.T) {
	leakcheck.Check(t)
	r := New(Options{Workers: 1, CacheDir: t.TempDir()})
	store := &slowStore{inner: r.disk, hold: make(chan struct{})}
	r.disk = store
	var executions atomic.Int64
	r.execute = func(c system.Config) (*system.Results, error) {
		executions.Add(1)
		return fakeResults(c), nil
	}

	cfg := tinyConfig(6)
	proberErr := make(chan error, 1)
	go func() {
		_, err := r.Submit(context.Background(), cfg)
		proberErr <- err
	}()
	waitForProbe(t, store, 1)
	const joiners = 3
	jobs := make([]*Job, joiners)
	for i := range jobs {
		j, err := r.Submit(context.Background(), cfg)
		if err != nil {
			close(store.hold)
			t.Fatal(err)
		}
		jobs[i] = j
	}
	r.Close()
	close(store.hold)

	if err := <-proberErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("prober's Submit = %v, want ErrClosed", err)
	}
	for i, j := range jobs {
		if _, err := j.Wait(context.Background()); !errors.Is(err, ErrClosed) {
			t.Fatalf("joiner %d: Wait = %v, want ErrClosed", i, err)
		}
		if s := j.Status().State; s != StateFailed {
			t.Fatalf("joiner %d: state = %s, want failed", i, s)
		}
	}
	if n := executions.Load(); n != 0 {
		t.Fatalf("a job closed during its probe was simulated %d times", n)
	}
}
