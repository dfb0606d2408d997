// Package runner is the run-service job engine: it executes system.Config
// simulations on a bounded worker pool with context cancellation, per-job
// timeouts, panic recovery and bounded retry, in front of a two-level
// result cache (in-memory LRU backed by JSON files on disk) keyed by a
// stable hash of the canonicalized Config. Identical configs submitted
// concurrently coalesce onto one execution. Every job emits structured
// lifecycle events and aggregate counters, which cmd/stashd serves over
// HTTP and the experiment harness adapts into its progress callback.
//
// All entry points (Run, RunAll, Submit, Metrics, Job) are safe for
// concurrent use.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/system"
)

// DefaultMemoryEntries bounds the in-memory result cache when
// Options.MemoryEntries is zero.
const DefaultMemoryEntries = 4096

// UnlimitedMemory disables the in-memory LRU bound; the experiment harness
// uses it so a whole sweep stays memoized.
const UnlimitedMemory = -1

// maxRetainedJobs bounds how many finished jobs stay queryable by ID.
const maxRetainedJobs = 4096

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("runner: closed")

// Options configure a Runner. The zero value is usable: GOMAXPROCS
// workers, no timeout, no retries, no disk cache, a default-bounded
// memory cache, no event sink.
type Options struct {
	// Workers bounds concurrent simulations; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds one simulation attempt; 0 disables. A timed-out
	// simulation cannot be preempted — it is abandoned to finish in the
	// background while its job reports failure.
	Timeout time.Duration
	// Retries is how many times a transient failure (panic, or an error
	// wrapped with Transient) is re-attempted. Deterministic simulation
	// errors are never retried.
	Retries int
	// CacheDir, when non-empty, persists results as JSON files so
	// identical configs hit the cache across process restarts. Corrupt or
	// unreadable entries degrade to misses. A fleet of workers may share
	// one directory: writes are atomic, and entries record their Origin so
	// cross-worker hits surface as HitPeer.
	CacheDir string
	// Origin names this node in disk-cache entries it writes. Empty is
	// fine for a single-node server; a fleet gives each worker a distinct
	// origin so shared-store hits can be attributed (HitDisk vs HitPeer).
	Origin string
	// MemoryEntries bounds the in-memory LRU in front of the disk cache:
	// 0 selects DefaultMemoryEntries, UnlimitedMemory (< 0) removes the
	// bound.
	MemoryEntries int
	// Events, when non-nil, receives every lifecycle event. It is called
	// synchronously from runner goroutines and must be fast and
	// concurrency-safe.
	Events func(Event)
	// DisableCache turns the runner into a pure bounded-concurrency
	// executor: no memoization, no disk persistence, no coalescing of
	// identical submissions — every Submit simulates. The public facade
	// uses this so library callers keep run-every-call semantics while
	// sharing the pool, panic recovery and retry machinery.
	DisableCache bool
}

// State is a job's lifecycle position.
type State string

// Job states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is one submitted simulation. Identical configs submitted while a job
// is probing the disk cache, queued or running share that job.
//
// A job's execution is a flight.Call (see DESIGN.md "Single-flight"): it is
// detached from any single submitter's context, each submitter joins as a
// waiter, and the execution is cancelled only when every cancellable waiter
// has left. One client disconnecting therefore cannot fail a coalesced job
// another client is still waiting on.
type Job struct {
	id   string
	key  string
	cfg  system.Config
	call *flight.Call
	// queued is closed once EventQueued has been delivered; a worker waits
	// for it before it announces the job's start or failure. Set before
	// the job enters the pending queue.
	queued chan struct{}

	mu         sync.Mutex
	state      State           //stash:guardedby mu
	enqueuedAt time.Time       //stash:guardedby mu
	startedAt  time.Time       //stash:guardedby mu
	finishedAt time.Time       //stash:guardedby mu
	attempts   int             //stash:guardedby mu
	cacheHit   string          //stash:guardedby mu
	result     *system.Results //stash:guardedby mu
	err        error           //stash:guardedby mu
}

// ID returns the job's runner-unique identifier.
func (j *Job) ID() string { return j.id }

// Key returns the job's config cache key.
func (j *Job) Key() string { return j.key }

// Config returns the job's configuration.
func (j *Job) Config() system.Config { return j.cfg }

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.call.Done() }

// Wait blocks until the job finishes or ctx is cancelled. A cancelled wait
// abandons only this waiter; the job itself keeps running for others.
func (j *Job) Wait(ctx context.Context) (*system.Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.call.Done():
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// JobStatus is a serializable snapshot of a job, served by GET /jobs/{id}.
type JobStatus struct {
	ID         string    `json:"id"`
	Key        string    `json:"key"`
	State      State     `json:"state"`
	Workload   string    `json:"workload"`
	DirKind    string    `json:"dirKind"`
	Coverage   float64   `json:"coverage"`
	Cores      int       `json:"cores"`
	Attempts   int       `json:"attempts"`
	CacheHit   string    `json:"cacheHit,omitempty"`
	EnqueuedAt time.Time `json:"enqueuedAt"`
	StartedAt  time.Time `json:"startedAt"`
	FinishedAt time.Time `json:"finishedAt"`
	DurationMS float64   `json:"durationMs"`
	Cycles     uint64    `json:"cycles,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:         j.id,
		Key:        j.key,
		State:      j.state,
		Workload:   j.cfg.WorkloadName(),
		DirKind:    j.cfg.DirKind,
		Coverage:   j.cfg.Coverage,
		Cores:      j.cfg.Cores,
		Attempts:   j.attempts,
		CacheHit:   j.cacheHit,
		EnqueuedAt: j.enqueuedAt,
		StartedAt:  j.startedAt,
		FinishedAt: j.finishedAt,
	}
	if !j.startedAt.IsZero() && !j.finishedAt.IsZero() {
		s.DurationMS = float64(j.finishedAt.Sub(j.startedAt)) / float64(time.Millisecond)
	}
	if j.result != nil {
		s.Cycles = j.result.Cycles
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the runner retries it (up to Options.Retries).
// The runner classifies simulation panics as transient itself; execution
// backends with genuinely flaky failure modes wrap their errors with this.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Runner executes simulation jobs. Create one with New and release it with
// Close.
//
// Lock discipline: Runner.mu orders before Job.mu and before a job's
// flight.Call lock — submit completes cached jobs (locking the job) and
// joins calls while holding the runner lock, so the reverse nesting would
// deadlock. finish and process lock them strictly in sequence, never nested
// the other way.
//
//stash:lockorder Runner.mu < Job.mu
type Runner struct {
	opts Options
	// execute is the simulation backend; tests substitute it.
	execute func(system.Config) (*system.Results, error)

	mem  *memCache
	disk resultStore
	met  counters

	mu   sync.Mutex
	cond *sync.Cond
	// pending is the FIFO work queue; inflight maps key to its probing,
	// queued or running job; jobs maps id to job (bounded retention);
	// finished holds finished job ids, oldest first.
	pending  []*Job          //stash:guardedby mu
	inflight map[string]*Job //stash:guardedby mu
	jobs     map[string]*Job //stash:guardedby mu
	finished []string        //stash:guardedby mu
	seq      int             //stash:guardedby mu
	closed   bool            //stash:guardedby mu
	wg       sync.WaitGroup
}

// New starts a runner and its worker pool.
func New(opts Options) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	memEntries := opts.MemoryEntries
	if memEntries == 0 {
		memEntries = DefaultMemoryEntries
	}
	if memEntries < 0 {
		memEntries = 0 // memCache treats non-positive as unlimited
	}
	r := &Runner{
		opts:     opts,
		execute:  system.Run,
		mem:      newMemCache(memEntries),
		inflight: make(map[string]*Job),
		jobs:     make(map[string]*Job),
	}
	if opts.CacheDir != "" {
		r.disk = newDiskCache(opts.CacheDir, opts.Origin)
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r
}

// Run submits cfg and waits for its result. Identical concurrent and past
// runs are shared through the job table and caches.
func (r *Runner) Run(ctx context.Context, cfg system.Config) (*system.Results, error) {
	j, err := r.Submit(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// RunAll executes a batch of independent configurations (deduplicated by
// cache key) and waits for all of them. The first failure synchronously
// abandons RunAll's registration on every job — cancelling each job that
// has no other waiter before another queued job can start — and RunAll
// returns that first error.
func (r *Runner) RunAll(ctx context.Context, cfgs []system.Config) error {
	if len(cfgs) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	seen := make(map[string]bool, len(cfgs))
	var jobs []*Job
	var leaves []func()
	// abort leaves the jobs newest first: each job RunAll created sits in
	// the queue behind the ones before it, so a worker freed by one job's
	// cancellation never finds a later job still live.
	abort := func() {
		for i := len(leaves) - 1; i >= 0; i-- {
			leaves[i]()
		}
	}
	for _, cfg := range cfgs {
		j, leave, err := r.submit(ctx, cfg)
		if err != nil {
			abort() // synchronously cancel the already-queued jobs
			return err
		}
		if seen[j.key] {
			leave() // duplicate registration on a job already held above
			continue
		}
		seen[j.key] = true
		jobs = append(jobs, j)
		leaves = append(leaves, leave)
	}

	errc := make(chan error, len(jobs))
	for _, j := range jobs {
		go func(j *Job) {
			_, err := j.Wait(ctx)
			errc <- err
		}(j)
	}
	var firstErr error
	for range jobs {
		//stash:blocking every Wait honors ctx, which the first failure cancels, so each waiter goroutine delivers exactly one result
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
			abort()  // synchronously cancel every job not shared with others
			cancel() // fail the remaining Waits promptly
		}
	}
	return firstErr
}

// Submit enqueues cfg and returns its job without waiting. Cache hits
// return an already-finished job; an identical probing, queued or running
// config returns that existing job. An already-cancelled ctx is refused.
func (r *Runner) Submit(ctx context.Context, cfg system.Config) (*Job, error) {
	j, _, err := r.submit(ctx, cfg)
	return j, err
}

// submit is Submit plus the leave for the registration it made, letting
// RunAll abandon its jobs synchronously on first failure.
func (r *Runner) submit(ctx context.Context, cfg system.Config) (*Job, func(), error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	key, err := Key(cfg)
	if err != nil {
		return nil, nil, err
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if !r.opts.DisableCache {
		if j, ok := r.inflight[key]; ok {
			if leave, ok := j.call.Join(ctx); ok {
				r.met.coalesced.Add(1)
				r.mu.Unlock()
				return j, leave, nil
			}
			// Dead entry: its execution was cancelled after the last
			// waiter left, but it has not been retired yet. Build a fresh
			// job; overwriting r.inflight[key] below is safe because
			// retireLocked only deletes the entry while it still points at
			// the dead job.
		}
		if res, ok := r.mem.get(key); ok {
			j := r.newJobLocked(key, cfg)
			r.completeFromCacheLocked(j, res, HitMemory)
			r.mu.Unlock()
			r.emitCached(j)
			return j, func() {}, nil
		}
	}

	// Nobody else can reach the fresh job's call yet, so joining it cannot
	// fail.
	j := r.newJobLocked(key, cfg)
	leave, _ := j.call.Join(ctx)
	if !r.opts.DisableCache {
		r.inflight[key] = j
	}
	if r.disk != nil && !r.opts.DisableCache {
		// The disk probe is file IO and happens outside the lock. The job
		// is already in inflight, so identical submissions arriving
		// meanwhile join it instead of probing (and possibly simulating)
		// on their own.
		r.mu.Unlock()
		res, origin, hit := r.disk.get(key)
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			r.settle(j, nil, ErrClosed) // joiners' Waits return
			j.call.Finish()
			return nil, nil, ErrClosed
		}
		if hit {
			r.mem.put(key, res)
			prov := HitDisk
			if origin != "" && origin != r.opts.Origin {
				// The entry was populated by another node sharing the store.
				prov = HitPeer
			}
			r.completeFromCacheLocked(j, res, prov)
			r.mu.Unlock()
			r.emitCached(j)
			return j, leave, nil
		}
	}
	j.queued = make(chan struct{})
	r.pending = append(r.pending, j)
	r.met.queued.Add(1)
	r.met.misses.Add(1)
	r.cond.Signal()
	r.mu.Unlock()
	r.emit(Event{Kind: EventQueued, JobID: j.id, Key: key, Config: cfg})
	close(j.queued)
	return j, leave, nil
}

// Job returns a job by ID while it is probing, queued, running, or among
// the most recently finished.
func (r *Runner) Job(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// QueueDepth reports how many jobs are queued but not yet picked up by a
// worker — the signal admission control (queue shedding) keys off.
func (r *Runner) QueueDepth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Close stops accepting submissions and blocks until every queued and
// running job has drained. Queued jobs whose context is already cancelled
// finish immediately as failed; running simulations complete. A job still
// probing the disk cache fails with ErrClosed once its probe returns.
func (r *Runner) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	r.wg.Wait() //stash:blocking Close drains by contract: setting closed wakes every worker, queued jobs finish or fail fast
}

// newJobLocked constructs a queued job and publishes it in the job table.
// The table makes the job visible to Job/Status lookups, so later state
// changes happen under j.mu.
//
//stash:locked mu
func (r *Runner) newJobLocked(key string, cfg system.Config) *Job {
	r.seq++
	j := &Job{
		id:         fmt.Sprintf("job-%06d", r.seq),
		key:        key,
		cfg:        cfg,
		call:       flight.New(),
		enqueuedAt: time.Now(),
		state:      StateQueued,
	}
	r.jobs[j.id] = j
	return j
}

// completeFromCacheLocked finishes j from a cache hit. The job gets a deep
// copy of the cached result: the cache retains sole ownership of its entry,
// so a caller mutating what it was handed cannot corrupt every future hit
// on the same key. Its call stays unfinished until emitCached has delivered
// the job's events.
//
//stash:locked mu
func (r *Runner) completeFromCacheLocked(j *Job, res *system.Results, hit string) {
	j.mu.Lock()
	j.state = StateDone
	j.cacheHit = hit
	j.result = res.Clone()
	j.finishedAt = time.Now()
	j.mu.Unlock()
	r.met.queued.Add(1)
	r.met.completed.Add(1)
	switch hit {
	case HitMemory:
		r.met.hitsMemory.Add(1)
	case HitPeer:
		r.met.hitsPeer.Add(1)
	default:
		r.met.hitsDisk.Add(1)
	}
	r.retireLocked(j)
}

// emitCached announces a cache-completed job, then releases its waiters,
// so a returned Wait implies the finished event was delivered (as finish
// does for simulated jobs). It runs after r.mu is released, so the job is
// visible to concurrent Status readers; snapshot the guarded fields under
// j.mu instead of reading them bare.
func (r *Runner) emitCached(j *Job) {
	j.mu.Lock()
	hit, res := j.cacheHit, j.result
	j.mu.Unlock()
	r.emit(Event{Kind: EventQueued, JobID: j.id, Key: j.key, Config: j.cfg, CacheHit: hit})
	r.emit(Event{Kind: EventFinished, JobID: j.id, Key: j.key, Config: j.cfg, CacheHit: hit, Result: res})
	j.call.Finish()
}

// retireLocked drops a finished job from the inflight table (unless a
// fresh job already replaced it there) and keeps it queryable by ID.
//
//stash:locked mu
func (r *Runner) retireLocked(j *Job) {
	if r.inflight[j.key] == j {
		delete(r.inflight, j.key)
	}
	r.retainLocked(j)
}

// retainLocked records a finished job and evicts the oldest beyond the
// retention bound so the job table cannot grow without limit.
//
//stash:locked mu
func (r *Runner) retainLocked(j *Job) {
	r.finished = append(r.finished, j.id)
	for len(r.finished) > maxRetainedJobs {
		delete(r.jobs, r.finished[0])
		r.finished = r.finished[1:]
	}
}

func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.pending) == 0 && !r.closed {
			r.cond.Wait() //stash:blocking woken by Signal on every submit and Broadcast on Close; the pool owns this goroutine
		}
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return // closed and drained
		}
		j := r.pending[0]
		r.pending = r.pending[1:]
		r.mu.Unlock()
		r.process(j)
	}
}

// process runs one queued job to completion (or failure).
func (r *Runner) process(j *Job) {
	<-j.queued //stash:blocking closed by submit right after it delivers EventQueued, so a job's events stay in order
	if err := j.call.Context().Err(); err != nil {
		r.finish(j, nil, fmt.Errorf("runner: job %s cancelled before start: %w", j.id, err), 0)
		return
	}
	start := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.startedAt = start
	j.mu.Unlock()
	r.met.started.Add(1)
	r.met.inFlight.Add(1)
	defer r.met.inFlight.Add(-1)
	r.emit(Event{Kind: EventStarted, JobID: j.id, Key: j.key, Config: j.cfg})

	maxAttempts := 1 + r.opts.Retries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var res *system.Results
	var err error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		j.mu.Lock()
		j.attempts = attempt
		j.mu.Unlock()
		res, err = r.runOnce(j)
		if err == nil || !IsTransient(err) || j.call.Context().Err() != nil || attempt == maxAttempts {
			break
		}
		r.met.retries.Add(1)
	}
	dur := time.Since(start)

	if err == nil {
		r.met.recordLatency(dur)
		if !r.opts.DisableCache {
			if r.disk != nil {
				if derr := r.disk.put(j.key, j.cfg, res); derr != nil {
					r.met.diskErrors.Add(1)
				}
			}
			r.mu.Lock()
			r.mem.put(j.key, res.Clone()) // the cache owns a private copy
			r.mu.Unlock()
		}
	}
	r.finish(j, res, err, dur)
}

// runOnce executes one simulation attempt with panic recovery, bounded by
// the job timeout and the submitter's context. The simulation itself is
// not preemptible: on timeout or cancellation the attempt's goroutine is
// abandoned (it finishes in the background and its result is discarded).
func (r *Runner) runOnce(j *Job) (*system.Results, error) {
	type outcome struct {
		res *system.Results
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{nil, Transient(fmt.Errorf("runner: simulation panicked: %v", p))}
			}
		}()
		res, err := r.execute(j.cfg)
		ch <- outcome{res, err}
	}()

	var timeoutC <-chan time.Time
	if r.opts.Timeout > 0 {
		t := time.NewTimer(r.opts.Timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timeoutC:
		return nil, fmt.Errorf("runner: job %s exceeded timeout %v", j.id, r.opts.Timeout)
	case <-j.call.Context().Done():
		return nil, j.call.Context().Err()
	}
}

// finish records the job's outcome, emits the terminal event, and only
// then publishes the outcome to waiters: a Wait that returns has the
// job's terminal event already delivered (see Event).
func (r *Runner) finish(j *Job, res *system.Results, err error, dur time.Duration) {
	attempt := r.settle(j, res, err)
	if err != nil {
		r.met.failed.Add(1)
		r.emit(Event{Kind: EventFailed, JobID: j.id, Key: j.key, Config: j.cfg, Attempt: attempt, Duration: dur, Err: err})
	} else {
		r.met.completed.Add(1)
		r.emit(Event{Kind: EventFinished, JobID: j.id, Key: j.key, Config: j.cfg, Attempt: attempt, Duration: dur, Result: res})
	}
	j.call.Finish()
}

// settle records j's outcome and retires it, returning its attempt count.
// The caller still owes the job's Finish.
func (r *Runner) settle(j *Job, res *system.Results, err error) (attempt int) {
	j.mu.Lock()
	j.finishedAt = time.Now()
	j.result = res
	j.err = err
	if err != nil {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	attempt = j.attempts
	j.mu.Unlock()

	r.mu.Lock()
	r.retireLocked(j)
	r.mu.Unlock()
	return attempt
}
