// Package psim is the deterministic parallel discrete-event engine: it
// advances many sim.EventQueue-backed shards concurrently under a
// conservative (lookahead-bounded) epoch protocol and still produces a
// bit-identical event order at every worker count.
//
// # Model
//
// The system is partitioned into logical processes (LPs) — in the CMP
// model, one LP per NoC tile — each owning a private *sim.Engine (its own
// timing wheel, heap, clock and insertion-sequence counter; see
// sim.EventQueue). During an epoch an LP may only schedule onto itself;
// everything that crosses LPs is deferred into a per-source Mailbox and
// merged on the calling goroutine at the epoch barrier. Epochs are
// aligned windows [k·L, (k+1)·L) whose width L (the lookahead) must not
// exceed the minimum latency of any cross-LP interaction — for the NoC,
// the minimum cross-tile hop latency — so a message emitted during epoch k
// can never be due before epoch k+1 begins, and executing the epochs of
// different LPs concurrently is safe.
//
// # Schedule
//
// LPs are split into Shards contiguous rank blocks. The goroutine that
// calls Run is worker 0 and owns the first block; Run spawns Shards-1
// further workers for the rest, so Shards=1 runs with no goroutines at all
// and Shards <= GOMAXPROCS never puts more spinning goroutines than CPUs
// on the barrier. Each epoch, every worker runs each LP it owns to the
// epoch end in turn (sim.Engine.RunUntil), then all Shards participants
// meet at the barrier. The serial section — event budget, OnEpoch, merge,
// choosing the next window — runs on the calling goroutine while the
// other workers are parked.
//
// # Determinism
//
// The engine realizes the fixed total order
//
//	(cycle, LP rank, LP-local sequence)
//
// independent of how LPs are grouped into worker shards:
//
//   - Within one LP, events fire in the LP's own (cycle, sequence) order —
//     a property of its private queue, untouched by parallelism.
//   - Across LPs, events within one epoch commute: they touch disjoint
//     LP state, and all cross-LP effects are mailbox appends that the
//     merge replays in the canonical (cycle, source rank, send order)
//     order at the barrier, on one goroutine. So running LP 0 to the epoch
//     end, then LP 1, and so on yields exactly the state that stepping
//     the globally (cycle, rank)-minimal event would, and neither the
//     shard layout nor the LP-sequential schedule can leak into any
//     simulation-visible value.
//
// Note what this does *not* promise: the legacy serial engine's order is
// (cycle, global insertion sequence), a history-dependent interleaving of
// all components that no partitioned execution can reproduce in general.
// psim's order is a different, equally valid serial schedule — Shards=1
// executes it exactly, and every Shards=N run is bit-identical to that.
// DESIGN.md's "Parallel engine" section carries the full argument.
package psim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/sim"
)

// ErrEventLimit is returned (wrapped) by Run when the event budget is
// exhausted before the queues drain.
var ErrEventLimit = errors.New("psim: event limit reached")

// Config parameterizes a parallel engine.
type Config struct {
	// Shards is the number of worker goroutines; LPs are split across them
	// in contiguous rank blocks. Must be in [1, len(lps)].
	Shards int
	// Lookahead is the epoch width L in cycles: the guaranteed minimum
	// delay of any cross-LP interaction. Must be >= 1.
	Lookahead sim.Cycle
	// MaxEvents, when nonzero, bounds the total events executed; Run
	// returns ErrEventLimit once an epoch ends past the budget.
	MaxEvents uint64
}

// Engine drives a set of per-LP event queues through conservative epochs.
type Engine struct {
	cfg Config
	lps []*sim.Engine

	// workers[0] is the goroutine that calls Run; workers[1:] are spawned
	// by it. The barrier has one participant per worker.
	workers []worker
	start   barrier
	stop    bool

	// Epoch window, written by the caller between barriers (the barrier's
	// happens-before edges publish them to the workers).
	epochEnd sim.Cycle

	// OnEpoch, when set, runs on the calling goroutine at each epoch
	// barrier, after the workers have drained the epoch and before the
	// cross-LP merge. start and end are the epoch window. Samplers hook
	// here: the barrier grid is part of the deterministic schedule, so
	// observations taken at it are shard-count-invariant too. Like merge,
	// it must not schedule anything before end.
	OnEpoch func(start, end sim.Cycle)
}

// worker owns a contiguous block of LPs and runs them through one epoch at
// a time. steps counts the events it has executed across all epochs;
// next/has hold the earliest event left in its LPs when its last epoch
// ended (before the merge).
//
//stash:tileowned
type worker struct {
	eng     *Engine
	engines []*sim.Engine
	sense   uint32
	steps   uint64
	next    sim.Cycle
	has     bool
	// left counts the times a spawned worker has left its loop. It is
	// written just before the worker's WaitGroup Done, so once Run has
	// joined the workers every one of them shows here (the tests read it
	// to pin that join).
	left uint64
}

// New builds a parallel engine over the given LP queues. LP rank is the
// slice index; ranks are the cross-LP tie-break, so callers must use a
// stable, meaningful order (the CMP model uses NoC tile id).
func New(cfg Config, lps []*sim.Engine) (*Engine, error) {
	if len(lps) == 0 {
		return nil, fmt.Errorf("psim: no LPs")
	}
	if cfg.Shards < 1 || cfg.Shards > len(lps) {
		return nil, fmt.Errorf("psim: shards must be in [1,%d], got %d", len(lps), cfg.Shards)
	}
	if cfg.Lookahead < 1 {
		return nil, fmt.Errorf("psim: lookahead must be >= 1 cycle, got %d", cfg.Lookahead)
	}
	e := &Engine{cfg: cfg, lps: lps}
	e.workers = make([]worker, cfg.Shards)
	// Contiguous block partition: neighbors on the mesh tend to land in
	// the same shard, and the assignment is a pure function of (len(lps),
	// Shards) — though correctness never depends on the layout. Block
	// sizes differ by at most one, so every worker owns at least one LP.
	for i := range e.workers {
		lo, hi := i*len(lps)/cfg.Shards, (i+1)*len(lps)/cfg.Shards
		e.workers[i] = worker{eng: e, engines: lps[lo:hi]}
	}
	e.start.init(int32(cfg.Shards)) // the caller is worker 0
	return e, nil
}

// Pending returns the total events queued across all LPs. Only meaningful
// outside Run (the caller owns all queues between epochs).
func (e *Engine) Pending() int {
	n := 0
	for _, lp := range e.lps {
		n += lp.Pending()
	}
	return n
}

// EventsRun returns the total events executed across all LPs.
func (e *Engine) EventsRun() uint64 {
	var n uint64
	for _, lp := range e.lps {
		n += lp.EventsRun()
	}
	return n
}

// Cycles returns the furthest LP clock — the parallel analogue of the
// serial engine's final Now().
func (e *Engine) Cycles() sim.Cycle {
	var max sim.Cycle
	for _, lp := range e.lps {
		if t := lp.Now(); t > max {
			max = t
		}
	}
	return max
}

// Run executes epochs until every queue drains and merge produces no new
// work, or the event budget runs out. The calling goroutine is worker 0:
// it runs the first LP block's share of every epoch itself, and merge is
// called on it at each epoch boundary with the other workers parked at
// the barrier; merge must replay the epoch's cross-LP messages into the
// destination queues (in canonical order — see Drain) and may schedule at
// any cycle >= the epoch end. The Shards-1 other worker goroutines live
// strictly inside this call: they are spawned on entry and joined before
// it returns, so a completed Run leaks nothing.
func (e *Engine) Run(merge func(epochEnd sim.Cycle)) (uint64, error) {
	e.stop = false
	var exited sync.WaitGroup
	exited.Add(len(e.workers) - 1)
	for i := 1; i < len(e.workers); i++ {
		// All workers rendezvous on a sense-reversing barrier twice per
		// epoch (epoch start, epoch end); between barriers each worker
		// touches only the LP queues it owns.
		//stash:parallel conservative PDES workers; joined before Run returns
		go e.workers[i].loop(&exited)
	}
	var total uint64
	err := e.drive(merge, &total)
	// Release the parked workers one last time with stop set so each
	// exits its loop, and wait until they have.
	e.stop = true
	e.start.await(&e.workers[0].sense)
	exited.Wait()
	return total, err
}

// drive is Run's epoch loop, split out so Run can unconditionally release
// and join the workers whether drive returns cleanly or on a budget
// error.
func (e *Engine) drive(merge func(epochEnd sim.Cycle), total *uint64) error {
	L := e.cfg.Lookahead
	w0 := &e.workers[0]
	minT, any := e.nextEvent()
	for {
		if !any {
			return nil
		}
		// Skip-ahead: jump straight to the epoch window containing the
		// earliest event. Windows stay aligned to the L grid, so the
		// barrier schedule — and anything observing it — is a pure
		// function of the event timeline, not of how many idle epochs a
		// particular implementation would have cycled through.
		start := minT - minT%L
		end := start + L
		e.epochEnd = end

		e.start.await(&w0.sense) // release the workers into the epoch
		w0.runEpoch(end)
		e.start.await(&w0.sense) // wait for them to drain it

		*total = 0
		for i := range e.workers {
			*total += e.workers[i].steps
		}
		if e.cfg.MaxEvents != 0 && *total >= e.cfg.MaxEvents {
			return fmt.Errorf("%w: %d events run, budget %d", ErrEventLimit, *total, e.cfg.MaxEvents)
		}
		if e.OnEpoch != nil {
			e.OnEpoch(start, end)
		}
		merge(end)
		minT, any = e.nextAfter(end)
	}
}

// nextAfter returns the earliest pending cycle once the epoch ending at
// end has been merged, or a stand-in for it in the same window. merge
// never schedules before end, so when some worker still holds an event in
// the following window [end, end+L), that window comes next whatever
// merge scheduled: end itself picks it. The workers' post-epoch minima
// settle this without the caller touching every LP's queue (half of which
// another CPU has just written); only when they all lie beyond that
// window does it fall back to the full scan, which also sees merge's
// arrivals.
func (e *Engine) nextAfter(end sim.Cycle) (sim.Cycle, bool) {
	for i := range e.workers {
		if w := &e.workers[i]; w.has && w.next < end+e.cfg.Lookahead {
			return end, true
		}
	}
	return e.nextEvent()
}

// nextEvent returns the earliest pending cycle across all LPs.
func (e *Engine) nextEvent() (sim.Cycle, bool) {
	var min sim.Cycle
	any := false
	for _, lp := range e.lps {
		if t, ok := lp.NextEventTime(); ok && (!any || t < min) {
			min, any = t, true
		}
	}
	return min, any
}

// loop is a spawned worker's life: epochs bracketed by barriers until the
// caller raises stop.
func (w *worker) loop(exited *sync.WaitGroup) {
	defer exited.Done()
	for {
		w.eng.start.await(&w.sense)
		if w.eng.stop {
			w.left++
			return
		}
		w.runEpoch(w.eng.epochEnd)
		w.eng.start.await(&w.sense)
	}
}

// runEpoch runs each of the worker's LPs, in rank order, through every
// event strictly before end, and records the earliest event left behind.
// An LP's events within the epoch touch only that LP's state and its own
// mailbox, so running the LPs one after another is equivalent to
// interleaving them in (cycle, rank) order — and needs no per-event scan
// across LPs to pick the next one.
//
//stash:hotpath
func (w *worker) runEpoch(end sim.Cycle) {
	w.has = false
	for _, lp := range w.engines {
		w.steps += lp.RunUntil(end - 1)
		if t, ok := lp.NextEventTime(); ok && (!w.has || t < w.next) {
			w.next, w.has = t, true
		}
	}
}
