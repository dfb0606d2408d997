// Package sim implements the deterministic discrete-event simulation engine
// that drives the CMP model. Components schedule callbacks at future cycles;
// the engine executes them in (cycle, insertion-order) order, so two runs of
// the same configuration produce bit-identical results.
//
// The serial engine is single-threaded: coherence-protocol debugging and
// reproducible experiments both depend on a total, stable event order. The
// scheduling core (EventQueue, in queue.go) is factored out of Engine so
// that internal/psim can run one queue per tile under a conservative epoch
// protocol; Engine embeds a queue and remains the serial façade.
//
// The scheduler is hand-specialized for the protocol's traffic shape and is
// allocation-free on the steady-state path:
//
//   - Events due within the next wheelSize (256) cycles — every protocol
//     latency and virtually every NoC arrival — go to a timing wheel of
//     per-cycle FIFO lists and never touch the heap. A 4-word occupancy
//     bitmap finds the next non-empty bucket with a couple of
//     trailing-zero counts.
//   - Everything else goes to a flat 4-ary min-heap of 24-byte inline keys
//     (cycle, tie, slot index), so sift operations move small values and
//     nothing is boxed through an interface.
//   - Both keep the callback payloads in one arena: a wheel bucket is a
//     list threaded through the slots' next links, a heap key carries a
//     slot index, and released slots go on one free list. The arena grows
//     with the peak number of pending events (a few hundred in the 64-core
//     model), not with the wheel's size.
//
// The arena recycles its slots, so after warm-up the engine performs zero
// allocations per event. The total execution order is
// bit-identical to the original container/heap implementation (the
// property tests in legacy_test.go replay randomized schedules through
// both): with FIFO tie-breaking, an event lands in the wheel only once
// `at - now < wheelSize`, so every wheel event due at cycle T was
// scheduled strictly after every heap event due at T (which needed
// `at - now >= wheelSize`, i.e. an earlier now and hence a smaller seq);
// draining the heap's same-cycle entries before the wheel bucket therefore
// preserves (cycle, seq) order exactly. When a shuffle seed permutes
// same-cycle ties, all events take the heap path, reproducing the original
// order for every seed.
package sim

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Engine owns an event queue and the simulated clock, and adds the run
// loop, tracing and event accounting on top of the embedded EventQueue
// (which contributes Now, Pending, At/After and their Arg forms,
// NextEventTime and SetShuffleSeed).
//
//stash:tileowned
type Engine struct {
	EventQueue

	ran    uint64
	Trace  func(at Cycle, name string) // optional event trace hook
	halted bool
}

// NewEngine returns an engine at cycle 0 with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// EventsRun returns the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Halt stops Run after the current event completes, leaving any remaining
// events queued. Used by watchdogs and by tests that inject failures.
func (e *Engine) Halt() { e.halted = true }

// Step pops the earliest pending event, advances the clock to it, and
// fires it. Precondition: at least one event is pending (Pending() > 0).
// Run is equivalent to Step in a loop; psim's tests use Step to interleave
// several queues one event at a time as the reference for the parallel
// engine's schedule.
//
//stash:hotpath
func (e *Engine) Step() {
	ev := e.popNext()
	if e.Trace != nil {
		e.Trace(e.now, ev.name)
	}
	ev.fire()
	e.ran++
}

// Run executes events until the queue drains, limit events have run
// (limit 0 means no limit), or Halt is called. It returns the number of
// events executed by this call.
//
//stash:hotpath
func (e *Engine) Run(limit uint64) uint64 {
	var n uint64
	e.halted = false
	for e.Pending() > 0 && !e.halted {
		if limit != 0 && n >= limit {
			break
		}
		ev := e.popNext()
		if e.Trace != nil {
			e.Trace(e.now, ev.name)
		}
		ev.fire()
		e.ran++
		n++
	}
	return n
}

// RunUntil executes events with timestamps up to and including cycle end.
// Events scheduled beyond end remain queued; the clock is left at the
// timestamp of the last event executed (not advanced to end). The
// parallel engine's workers run each queue they own to the epoch end
// with it.
//
//stash:hotpath
func (e *Engine) RunUntil(end Cycle) uint64 {
	var n uint64
	e.halted = false
	for !e.halted {
		t, ok := e.nextTime()
		if !ok || t > end {
			break
		}
		if t < e.now {
			panic("sim: time went backwards")
		}
		ev := e.popNext()
		if e.Trace != nil {
			e.Trace(e.now, ev.name)
		}
		ev.fire()
		e.ran++
		n++
	}
	return n
}
