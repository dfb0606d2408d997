package psim

import (
	"runtime"
	"sync/atomic"
)

// barrier is a reusable sense-reversing spin barrier for n participants:
// one per worker, where worker 0 is the goroutine that called Engine.Run.
// Epochs are short (a handful of events per shard), so parking on a
// channel or sync.Cond per epoch would dominate the run time; arrivals
// spin on a generation counter and yield to the scheduler only after a
// bounded burst, which keeps the barrier in the tens of nanoseconds when
// all participants are runnable while staying polite when the machine is
// oversubscribed (Shards > GOMAXPROCS). With one participant await returns
// at once.
//
// The atomics carry the happens-before edges the engine relies on: every
// write a participant made before arriving (epoch window, queue contents,
// mailbox appends, step counts) is visible to every participant after the
// release.
type barrier struct {
	n     int32
	burst int
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *barrier) init(n int32) {
	b.n = n
	// Spinning only pays when another participant can make progress on a
	// different CPU; on a single-CPU host yield immediately instead.
	b.burst = 64
	if runtime.GOMAXPROCS(0) <= 1 {
		b.burst = 1
	}
}

// await blocks until all n participants have arrived. sense is the
// caller's private phase counter; it must start at 0 and be passed to
// every await on this barrier.
//
//stash:hotpath
func (b *barrier) await(sense *uint32) {
	g := *sense + 1
	*sense = g
	if b.count.Add(1) == b.n {
		// Last arriver: reset for the next phase and release everyone.
		b.count.Store(0)
		b.gen.Store(g)
		return
	}
	spins := 0
	for b.gen.Load() != g {
		spins++
		if spins >= b.burst {
			spins = 0
			runtime.Gosched()
		}
	}
}
