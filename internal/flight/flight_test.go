package flight

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
)

// waitersNow reads the live waiter count.
func (c *Call) waitersNow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiters
}

// execute runs work under c's context on a goroutine, the way both users
// drive a call: publish the result, then Finish.
func execute(c *Call, work func(ctx context.Context) string, out *string) {
	go func() {
		*out = work(c.Context())
		c.Finish()
	}()
}

// waitCancelled fails the test unless c's context is cancelled in time.
func waitCancelled(t *testing.T, c *Call) {
	t.Helper()
	select {
	case <-c.Context().Done():
	case <-time.After(5 * time.Second):
		t.Fatal("call context never cancelled")
	}
}

func TestCallSharedByConcurrentJoiners(t *testing.T) {
	leakcheck.Check(t)
	c := New()
	const callers = 8

	var executions atomic.Int64
	release := make(chan struct{})
	var out string
	execute(c, func(ctx context.Context) string {
		executions.Add(1)
		select {
		case <-release:
			return "shared"
		case <-ctx.Done():
			return "cancelled"
		}
	}, &out)

	// Every caller has a cancellable context, so each also has a monitor.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	results := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, ok := c.Join(ctx); !ok {
				t.Errorf("caller %d: live call reported dead", i)
				return
			}
			<-c.Done()
			results[i] = out
		}(i)
	}
	// Release the execution once every caller has joined.
	deadline := time.Now().Add(5 * time.Second)
	for c.waitersNow() != callers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callers joined the call", c.waitersNow(), callers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("executed %d times, want 1", got)
	}
	for i, r := range results {
		if r != "shared" {
			t.Fatalf("caller %d got %q, want the shared result", i, r)
		}
	}
}

func TestCallOneLeaverDoesNotCancel(t *testing.T) {
	leakcheck.Check(t)
	c := New()
	leaveA, _ := c.Join(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	if _, ok := c.Join(ctxB); !ok {
		t.Fatal("live call reported dead")
	}

	cancelB() // B's monitor leaves
	deadline := time.Now().Add(5 * time.Second)
	for c.waitersNow() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters = %d after one leaver, want 1", c.waitersNow())
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Context().Err(); err != nil {
		t.Fatalf("one waiter leaving cancelled a call another waiter still wants: %v", err)
	}
	c.Finish()
	leaveA() // after Finish: a no-op
	if err := c.Context().Err(); err == nil {
		t.Fatal("Finish did not release the context")
	}
}

func TestCallLastLeaverCancels(t *testing.T) {
	leakcheck.Check(t)
	c := New()
	ctx, cancel := context.WithCancel(context.Background())
	if _, ok := c.Join(ctx); !ok {
		t.Fatal("live call reported dead")
	}
	cancel()
	waitCancelled(t, c)
	select {
	case <-c.Done():
		t.Fatal("cancellation finished the call; only the executor's Finish may")
	default:
	}
	c.Finish()
}

func TestJoinDeadCallReportsDead(t *testing.T) {
	leakcheck.Check(t)
	c := New()
	leave, _ := c.Join(context.Background())
	leave()
	if err := c.Context().Err(); err == nil {
		t.Fatal("last leaver did not cancel")
	}
	if leave, ok := c.Join(context.Background()); ok || leave != nil {
		t.Fatal("Join on a dead call reported it live")
	}
	c.Finish()
}

func TestLeaveIsIdempotent(t *testing.T) {
	leakcheck.Check(t)
	c := New()
	leaveA, _ := c.Join(context.Background())
	c.Join(context.Background())
	leaveA()
	leaveA() // a second leave by the same waiter must not count twice
	if got := c.waitersNow(); got != 1 {
		t.Fatalf("waiters = %d after a double leave, want 1", got)
	}
	if err := c.Context().Err(); err != nil {
		t.Fatalf("a double leave cancelled a call with a waiter left: %v", err)
	}
	c.Finish()
}

func TestJoinFinishedCallSucceeds(t *testing.T) {
	leakcheck.Check(t)
	c := New()
	c.Finish()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leave, ok := c.Join(ctx)
	if !ok {
		t.Fatal("a finished call reported dead")
	}
	leave()
	<-c.Done()
}
