// Package flight is the run service's single-flight primitive: one
// execution shared by every caller that wants its result. The runner's jobs
// and the fleet coordinator's per-key dispatches are both Calls.
//
// A Call's context is detached from any single caller. Each caller joins as
// a waiter for as long as its own context lives, and the Call's context is
// cancelled when the last waiter leaves before the execution finishes. One
// client disconnecting therefore cannot fail an execution another client is
// still waiting on, and an execution nobody wants any more stops.
package flight

import (
	"context"
	"sync"
	"sync/atomic"
)

// Call is one shared execution. The executor runs under Context, publishes
// its result where the waiters will read it, then calls Finish; waiters
// block on Done.
type Call struct {
	//stash:ignore ctxcheck the call's context is shared by design: it must outlive any one waiter and is cancelled when the last waiter leaves
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	waiters  int  //stash:guardedby mu
	finished bool //stash:guardedby mu
}

// New returns a live call with no waiters.
func New() *Call {
	ctx, cancel := context.WithCancel(context.Background())
	return &Call{ctx: ctx, cancel: cancel, done: make(chan struct{})}
}

// Context is the execution's context: cancelled when the last waiter leaves
// an unfinished call, and released by Finish.
func (c *Call) Context() context.Context { return c.ctx }

// Done is closed by Finish.
func (c *Call) Done() <-chan struct{} { return c.done }

// Join registers one waiter whose interest lasts as long as ctx, and returns
// the idempotent leave that releases it early. ok is false when the call is
// dead — its context was cancelled because every earlier waiter left — and
// the caller must replace it rather than wait on it. Joining a finished call
// succeeds trivially: its result is already published. A context that can
// be cancelled gets a monitor goroutine that leaves on cancellation; one
// that cannot pins the call to completion.
//
// The liveness check and the increment happen under the lock leave cancels
// under, so nobody can join a call in the instant it is being cancelled.
func (c *Call) Join(ctx context.Context) (leave func(), ok bool) {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return func() {}, true
	}
	if c.ctx.Err() != nil {
		c.mu.Unlock()
		return nil, false
	}
	c.waiters++
	c.mu.Unlock()
	var left atomic.Bool
	leave = func() {
		if left.CompareAndSwap(false, true) {
			c.leave()
		}
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				leave()
			case <-c.done:
			}
		}()
	}
	return leave, true
}

// leave removes one waiter; the last one out of an unfinished call cancels
// its context. A finished call is left alone: a monitor can race Finish
// (both of its select cases ready).
func (c *Call) leave() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	c.waiters--
	if c.waiters == 0 {
		c.cancel()
	}
}

// Finish marks the call finished, releases its waiters and then its
// context. The result must be published before Finish is called.
func (c *Call) Finish() {
	c.mu.Lock()
	c.finished = true
	c.mu.Unlock()
	close(c.done)
	c.cancel()
}
