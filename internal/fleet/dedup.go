package fleet

import (
	"context"
	"sync"

	"repro/internal/flight"
	"repro/internal/stashd"
)

// outcome is what one dispatch produced: the worker's reply (or one
// fabricated from the shared store), shared by however many clients joined
// the call.
type outcome struct {
	resp   stashd.RunResponse
	worker string // which worker served it; "" for shared-store hits
}

// call is one in-flight dispatch shared by every submitter of the same job
// key. flight.Call carries the waiter protocol (see DESIGN.md
// "Single-flight"): the dispatch context is cancelled only when the last
// waiter has left.
type call struct {
	*flight.Call
	// out and err are written once, before Finish, and only read after
	// Done; the close is the publication barrier.
	out *outcome
	err error
}

// dedup is the fleet-wide in-flight table. A key appears at most once; a
// submission for a present key joins the existing call instead of
// dispatching its own.
type dedup struct {
	mu        sync.Mutex
	calls     map[string]*call //stash:guardedby mu
	coalesced int64            //stash:guardedby mu
}

func newDedup() *dedup {
	return &dedup{calls: make(map[string]*call)}
}

// do runs fn for key exactly once across every concurrent caller: the first
// caller starts a leader goroutine that executes fn under the call's
// context; the rest join its call. Every caller blocks until the shared
// dispatch finishes or its own ctx is cancelled. A call whose waiters have
// all left is dead: its dispatch is being cancelled, and the next caller
// replaces it.
func (d *dedup) do(ctx context.Context, key string, fn func(ctx context.Context) (*outcome, error)) (*outcome, error) {
	// do waits on the call itself and leaves when ctx ends, so it joins
	// with a context that spawns no monitor goroutine.
	interest := context.Background()
	d.mu.Lock()
	var leave func()
	c, ok := d.calls[key]
	if ok {
		leave, ok = c.Join(interest) // not ok: a dead call, replaced below
	}
	if ok {
		d.coalesced++
	} else {
		c = &call{Call: flight.New()}
		d.calls[key] = c
		leave, _ = c.Join(interest)
		go d.lead(key, c, fn)
	}
	d.mu.Unlock()

	select {
	case <-c.Done():
		return c.out, c.err
	case <-ctx.Done():
		leave()
		return nil, ctx.Err()
	}
}

// lead executes c's dispatch, retires its table entry (unless a dead call
// was already replaced) and publishes the outcome.
func (d *dedup) lead(key string, c *call, fn func(ctx context.Context) (*outcome, error)) {
	c.out, c.err = fn(c.Context())
	d.mu.Lock()
	if d.calls[key] == c {
		delete(d.calls, key)
	}
	d.mu.Unlock()
	c.Finish()
}

// coalescedCount reports how many submissions joined an existing call.
func (d *dedup) coalescedCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.coalesced
}
