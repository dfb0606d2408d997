package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stashd"
	"repro/internal/testutil/leakcheck"
)

func TestDedupCoalescesConcurrentCallers(t *testing.T) {
	leakcheck.Check(t)
	d := newDedup()
	const callers = 8

	var executions atomic.Int64
	release := make(chan struct{})
	fn := func(ctx context.Context) (*outcome, error) {
		executions.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &outcome{resp: stashd.RunResponse{JobID: "shared"}}, nil
	}

	var wg sync.WaitGroup
	results := make([]*outcome, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := d.do(context.Background(), "k", fn)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = out
		}(i)
	}

	// Wait until every caller has registered before releasing the leader,
	// so each one had the chance to coalesce.
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.mu.Lock()
		waiters := 0
		if d.calls["k"] != nil {
			waiters = 1 + int(d.coalesced) // the leader plus every joiner
		}
		d.mu.Unlock()
		if waiters == callers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callers joined the call", waiters, callers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := d.coalescedCount(); got != callers-1 {
		t.Fatalf("coalesced = %d, want %d", got, callers-1)
	}
	for i, out := range results {
		if out == nil || out.resp.JobID != "shared" {
			t.Fatalf("caller %d got %+v, want the shared outcome", i, out)
		}
	}
}

func TestDedupOneWaiterLeavingDoesNotCancelTheCall(t *testing.T) {
	leakcheck.Check(t)
	d := newDedup()

	started := make(chan struct{})
	release := make(chan struct{})
	cancelled := make(chan struct{})
	fn := func(ctx context.Context) (*outcome, error) {
		close(started)
		select {
		case <-release:
			return &outcome{resp: stashd.RunResponse{JobID: "ok"}}, nil
		case <-ctx.Done():
			close(cancelled)
			return nil, ctx.Err()
		}
	}

	// Leader joins, then a second waiter with its own cancellable context.
	type res struct {
		out *outcome
		err error
	}
	leaderDone := make(chan res, 1)
	go func() {
		out, err := d.do(context.Background(), "k", fn)
		leaderDone <- res{out, err}
	}()
	<-started

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan res, 1)
	go func() {
		out, err := d.do(waiterCtx, "k", fn)
		waiterDone <- res{out, err}
	}()

	// The second caller must join the existing call, not start its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.mu.Lock()
		waiters := 0
		if d.calls["k"] != nil {
			waiters = 1 + int(d.coalesced) // the leader plus every joiner
		}
		d.mu.Unlock()
		if waiters == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second caller never joined the call")
		}
		time.Sleep(time.Millisecond)
	}

	cancelWaiter()
	w := <-waiterDone
	if w.err == nil {
		t.Fatal("cancelled waiter returned no error")
	}

	// The dispatch must still be alive for the remaining leader.
	select {
	case <-cancelled:
		t.Fatal("one waiter leaving cancelled a call another waiter still wants")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	l := <-leaderDone
	if l.err != nil || l.out == nil || l.out.resp.JobID != "ok" {
		t.Fatalf("leader got (%+v, %v), want the ok outcome", l.out, l.err)
	}
}

func TestDedupLastWaiterLeavingCancelsTheDispatch(t *testing.T) {
	leakcheck.Check(t)
	d := newDedup()

	started := make(chan struct{})
	cancelled := make(chan struct{})
	fn := func(ctx context.Context) (*outcome, error) {
		close(started)
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := d.do(ctx, "k", fn)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled caller returned no error")
	}

	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch context never cancelled after the last waiter left")
	}

	// The table entry must be gone so a later identical submission starts
	// fresh instead of joining a dead call.
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.mu.Lock()
		_, present := d.calls["k"]
		d.mu.Unlock()
		if !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned call still registered")
		}
		time.Sleep(time.Millisecond)
	}
	out, err := d.do(context.Background(), "k", func(ctx context.Context) (*outcome, error) {
		return &outcome{resp: stashd.RunResponse{JobID: "fresh"}}, nil
	})
	if err != nil || out.resp.JobID != "fresh" {
		t.Fatalf("fresh call after abandonment got (%+v, %v)", out, err)
	}
}
