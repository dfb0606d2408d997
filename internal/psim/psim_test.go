package psim_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/psim"
	"repro/internal/sim"
	"repro/internal/testutil/leakcheck"
)

// The tests drive a toy multi-LP model through psim and through an
// independently-coded serial executor of the same epoch discipline, and
// demand bit-identical traces. The model is adversarial on purpose: LPs
// schedule bursts of same-cycle events, exchange cross-LP messages at
// exactly the lookahead bound, and fold every event into an order-
// sensitive hash, so any deviation in the total order — a worker stepping
// the wrong LP first, a merge replayed out of order — changes the hash.

const lookahead = 7

// toyLP is one logical process: a seeded self-scheduling event source
// whose state hashes every event it executes in order.
type toyLP struct {
	rank  int
	eng   *sim.Engine
	out   *psim.Mailbox[toyMsg]
	hash  uint64
	count int
	limit int
	rng   uint64
	fn    func(any) // bound once; arg is the delivered value
}

type toyMsg struct {
	dst int
	val uint64
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (lp *toyLP) next() uint64 {
	lp.rng = mix(lp.rng)
	return lp.rng
}

// tick is the LP's only event body: record the event in the hash, then
// maybe self-schedule (possibly at the same cycle) and maybe emit a
// cross-LP message.
func (lp *toyLP) tick(arg any) {
	v := arg.(uint64)
	now := uint64(lp.eng.Now())
	lp.hash = mix(lp.hash ^ now ^ v ^ uint64(lp.rank))
	lp.count++
	if lp.count >= lp.limit {
		return
	}
	r := lp.next()
	// Same-cycle and near-future self events stress intra-LP ordering.
	delay := sim.Cycle(r % 3)
	lp.eng.AtArg(lp.eng.Now()+delay, "toy.tick", lp.fn, lp.next())
	if r%4 == 0 {
		lp.out.Push(now, toyMsg{dst: int(r>>8) % cap(lpDsts), val: lp.next()})
	}
}

// lpDsts only exists to give the message destination a stable modulus.
var lpDsts = make([]struct{}, 8)

// buildToy constructs n LPs with seeded initial events; each LP stops
// self-scheduling after limit ticks.
func buildToy(n int, seed uint64, limit int) ([]*toyLP, []*sim.Engine, []*psim.Mailbox[toyMsg]) {
	lps := make([]*toyLP, n)
	engines := make([]*sim.Engine, n)
	boxes := make([]*psim.Mailbox[toyMsg], n)
	for i := range lps {
		lp := &toyLP{rank: i, eng: sim.NewEngine(), out: &psim.Mailbox[toyMsg]{}, limit: limit, rng: mix(seed + uint64(i)*977)}
		lp.fn = lp.tick
		lps[i] = lp
		engines[i] = lp.eng
		boxes[i] = lp.out
		for k := 0; k < 3; k++ {
			lp.eng.AtArg(sim.Cycle(lp.next()%20), "toy.seed", lp.fn, lp.next())
		}
	}
	return lps, engines, boxes
}

// merge replays one epoch's cross-LP messages: delivery at the first cycle
// of the next epoch plus a deterministic jitter derived from the payload.
func mergeToy(lps []*toyLP, boxes []*psim.Mailbox[toyMsg], mergeHash *uint64) func(end sim.Cycle) {
	return func(end sim.Cycle) {
		psim.Drain(boxes, func(src int, at uint64, m toyMsg) {
			*mergeHash = mix(*mergeHash ^ at ^ m.val ^ uint64(src))
			dst := lps[m.dst%len(lps)]
			dst.eng.AtArg(end+sim.Cycle(m.val%5), "toy.deliver", dst.fn, m.val)
		})
	}
}

// toyTrace is everything a toy run can observe: per-LP hashes (every
// event an LP executed, in order), the merge hash (every cross-LP message,
// in replay order), the event total, and the grid hash (every epoch
// window, in order).
type toyTrace struct {
	hashes []uint64
	merge  uint64
	total  uint64
	grid   uint64
}

// diff describes the first difference from want, or returns "".
func (got toyTrace) diff(want toyTrace) string {
	switch {
	case got.total != want.total:
		return fmt.Sprintf("ran %d events, reference ran %d", got.total, want.total)
	case got.merge != want.merge:
		return fmt.Sprintf("merge-order hash %#x, reference %#x", got.merge, want.merge)
	case got.grid != want.grid:
		return fmt.Sprintf("epoch-grid hash %#x, reference %#x", got.grid, want.grid)
	}
	for i := range got.hashes {
		if got.hashes[i] != want.hashes[i] {
			return fmt.Sprintf("LP %d hash %#x, reference %#x", i, got.hashes[i], want.hashes[i])
		}
	}
	return ""
}

func foldWindow(grid *uint64, start, end sim.Cycle) {
	*grid = mix(*grid ^ uint64(start)<<32 ^ uint64(end))
}

func lpHashes(lps []*toyLP) []uint64 {
	hashes := make([]uint64, len(lps))
	for i, lp := range lps {
		hashes[i] = lp.hash
	}
	return hashes
}

// runParallel executes the toy model under psim with the given shard
// count.
func runParallel(t *testing.T, n, shards int, seed uint64) toyTrace {
	t.Helper()
	lps, engines, boxes := buildToy(n, seed, 400)
	eng, err := psim.New(psim.Config{Shards: shards, Lookahead: lookahead}, engines)
	if err != nil {
		t.Fatal(err)
	}
	var tr toyTrace
	eng.OnEpoch = func(start, end sim.Cycle) { foldWindow(&tr.grid, start, end) }
	if tr.total, err = eng.Run(mergeToy(lps, boxes, &tr.merge)); err != nil {
		t.Fatal(err)
	}
	tr.hashes = lpHashes(lps)
	return tr
}

// runReference executes the same model and epoch discipline with a direct
// single-threaded loop — no workers, no barrier — as the oracle for the
// concurrency machinery. Within an epoch it steps the globally
// (cycle, rank)-minimal event across all LPs, one event at a time: the
// order psim's schedule, which runs each LP to the epoch end in turn,
// must be equivalent to.
func runReference(t *testing.T, n int, seed uint64) toyTrace {
	t.Helper()
	lps, engines, boxes := buildToy(n, seed, 400)
	var tr toyTrace
	merge := mergeToy(lps, boxes, &tr.merge)
	for {
		minT, any := sim.Cycle(0), false
		for _, e := range engines {
			if tc, ok := e.NextEventTime(); ok && (!any || tc < minT) {
				minT, any = tc, true
			}
		}
		if !any {
			break
		}
		start := minT - minT%lookahead
		end := start + lookahead
		for {
			best := -1
			var bt sim.Cycle
			for i, e := range engines {
				if tc, ok := e.NextEventTime(); ok && tc < end && (best < 0 || tc < bt) {
					best, bt = i, tc
				}
			}
			if best < 0 {
				break
			}
			engines[best].Step()
			tr.total++
		}
		foldWindow(&tr.grid, start, end)
		merge(end)
	}
	tr.hashes = lpHashes(lps)
	return tr
}

// TestShardCountInvariance is the core determinism property: every shard
// count produces the trace the global-order reference produces. It also
// proves the commutation claim the engine's schedule rests on: running
// each LP to the epoch end in turn reaches exactly the state that stepping
// the globally (cycle, rank)-minimal event does, with the same messages
// replayed in the same order and the same epoch windows.
func TestShardCountInvariance(t *testing.T) {
	leakcheck.Check(t)
	for _, n := range []int{1, 3, 5, 8, 16} {
		for seed := uint64(1); seed <= 5; seed++ {
			want := runReference(t, n, seed)
			for _, shards := range []int{1, 2, 3, 4, 8, 16} {
				if shards > n {
					continue
				}
				if d := runParallel(t, n, shards, seed).diff(want); d != "" {
					t.Fatalf("n%d_seed%d_shards%d: %s", n, seed, shards, d)
				}
			}
		}
	}
}

// TestGoroutineAccounting pins the schedule's goroutine budget: the caller
// is worker 0, so during Run exactly Shards-1 extra goroutines exist —
// none at all for Shards=1 — and Run joins all of them before it returns:
// each spawned worker has left its loop by then. (A worker's goroutine
// may still be finishing its return for a moment after the join, so the
// goroutine count itself is left to leakcheck's grace period.)
func TestGoroutineAccounting(t *testing.T) {
	leakcheck.Check(t)
	const n = 8
	for _, shards := range []int{1, 2, 3, n} {
		lps, engines, boxes := buildToy(n, 3, 400)
		eng, err := psim.New(psim.Config{Shards: shards, Lookahead: lookahead}, engines)
		if err != nil {
			t.Fatal(err)
		}
		var mergeHash uint64
		inner := mergeToy(lps, boxes, &mergeHash)
		before := runtime.NumGoroutine()
		merges, off := 0, 0
		_, err = eng.Run(func(end sim.Cycle) {
			if g := runtime.NumGoroutine(); g != before+shards-1 && off == 0 {
				off = g
			}
			merges++
			inner(end)
		})
		left := psim.WorkersLeft(eng)
		if err != nil {
			t.Fatal(err)
		}
		if merges == 0 {
			t.Fatalf("shards=%d: merge never ran", shards)
		}
		if off != 0 {
			t.Errorf("shards=%d: %d goroutines inside merge, want %d (%d before Run + shards-1)", shards, off, before+shards-1, before)
		}
		if left != uint64(shards-1) {
			t.Errorf("shards=%d: %d workers had left their loops when Run returned, want all %d", shards, left, shards-1)
		}
	}
}

// TestOversubscribed runs more shards than GOMAXPROCS, the configuration
// where the barrier's spin-then-yield path carries progress (with
// GOMAXPROCS=1, the yield-immediately branch), and checks the result
// against the global-order reference.
func TestOversubscribed(t *testing.T) {
	leakcheck.Check(t)
	n := runtime.GOMAXPROCS(0) + 2
	if d := runParallel(t, n, n, 9).diff(runReference(t, n, 9)); d != "" {
		t.Fatalf("shards=%d on GOMAXPROCS=%d: %s", n, runtime.GOMAXPROCS(0), d)
	}
}

// TestEpochGridFollowsMergeArrivals pins the window choice after a merge:
// when every LP's own next event lies beyond the following window, the
// next window must still be the one holding the earliest arrival the
// merge just scheduled, and idle stretches must be skipped to the window
// of the next event.
func TestEpochGridFollowsMergeArrivals(t *testing.T) {
	leakcheck.Check(t)
	for _, shards := range []int{1, 2} {
		a, b := sim.NewEngine(), sim.NewEngine()
		box := &psim.Mailbox[int]{}
		var delivered []sim.Cycle
		deliver := func() { delivered = append(delivered, a.Now()) }
		a.At(1, "send", func() { box.Push(1, 0) })
		b.At(1000, "far", func() {})
		eng, err := psim.New(psim.Config{Shards: shards, Lookahead: lookahead}, []*sim.Engine{a, b})
		if err != nil {
			t.Fatal(err)
		}
		var grid []sim.Cycle
		eng.OnEpoch = func(start, end sim.Cycle) { grid = append(grid, start) }
		if _, err := eng.Run(func(end sim.Cycle) {
			psim.Drain([]*psim.Mailbox[int]{box}, func(int, uint64, int) {
				a.At(end+2, "deliver", deliver)
			})
		}); err != nil {
			t.Fatal(err)
		}
		want := []sim.Cycle{0, lookahead, 1000 - 1000%lookahead}
		if fmt.Sprint(grid) != fmt.Sprint(want) {
			t.Errorf("shards=%d: epoch starts %v, want %v", shards, grid, want)
		}
		if len(delivered) != 1 || delivered[0] != lookahead+2 {
			t.Errorf("shards=%d: delivered at %v, want [%d]", shards, delivered, lookahead+2)
		}
	}
}

// TestRunTwiceIdentical reruns one configuration and demands identical
// traces — determinism without reference to the oracle.
func TestRunTwiceIdentical(t *testing.T) {
	leakcheck.Check(t)
	if d := runParallel(t, 8, 4, 42).diff(runParallel(t, 8, 4, 42)); d != "" {
		t.Fatalf("two runs diverged: %s", d)
	}
}

// TestEventLimit exercises the budget path at every schedule shape: Run
// must stop with ErrEventLimit and still join the workers it spawned
// (leakcheck enforces that).
func TestEventLimit(t *testing.T) {
	leakcheck.Check(t)
	for _, shards := range []int{1, 2, 3, 8} {
		_, engines, boxes := buildToy(8, 7, 400)
		eng, err := psim.New(psim.Config{Shards: shards, Lookahead: lookahead, MaxEvents: 50}, engines)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run(func(end sim.Cycle) {
			psim.Drain(boxes, func(int, uint64, toyMsg) {})
		})
		if !errors.Is(err, psim.ErrEventLimit) {
			t.Fatalf("shards=%d: want ErrEventLimit, got %v", shards, err)
		}
	}
}

// TestEventLimitCountsParkedMessages stops a run on its budget while a
// cross-LP message is still parked in a mailbox: Run returns before the
// epoch's merge, so the pending figure is the LP queues plus the parked
// entries, and the merge that never ran must turn exactly those entries
// into queued events.
func TestEventLimitCountsParkedMessages(t *testing.T) {
	leakcheck.Check(t)
	for _, shards := range []int{1, 2} {
		a, b := sim.NewEngine(), sim.NewEngine()
		boxes := []*psim.Mailbox[int]{{}, {}}
		a.At(1, "send", func() { boxes[0].Push(1, 0) })
		b.At(1000, "far", func() {})
		eng, err := psim.New(psim.Config{Shards: shards, Lookahead: lookahead, MaxEvents: 1}, []*sim.Engine{a, b})
		if err != nil {
			t.Fatal(err)
		}
		merge := func(end sim.Cycle) {
			psim.Drain(boxes, func(int, uint64, int) { b.At(end, "deliver", func() {}) })
		}
		if _, err := eng.Run(merge); !errors.Is(err, psim.ErrEventLimit) {
			t.Fatalf("shards=%d: want ErrEventLimit, got %v", shards, err)
		}
		queued, parked := eng.Pending(), boxes[0].Len()+boxes[1].Len()
		if queued != 1 || parked != 1 {
			t.Fatalf("shards=%d: %d queued + %d parked after the budget stop, want 1 + 1", shards, queued, parked)
		}
		merge(lookahead)
		if got := eng.Pending(); got != queued+parked || boxes[0].Len() != 0 {
			t.Errorf("shards=%d: %d pending after the merge, want %d", shards, got, queued+parked)
		}
	}
}

// TestConfigValidation covers New's rejection paths.
func TestConfigValidation(t *testing.T) {
	leakcheck.Check(t)
	_, engines, _ := buildToy(4, 1, 400)
	if _, err := psim.New(psim.Config{Shards: 5, Lookahead: 1}, engines); err == nil {
		t.Fatal("accepted more shards than LPs")
	}
	if _, err := psim.New(psim.Config{Shards: 0, Lookahead: 1}, engines); err == nil {
		t.Fatal("accepted zero shards")
	}
	if _, err := psim.New(psim.Config{Shards: 2, Lookahead: 0}, engines); err == nil {
		t.Fatal("accepted zero lookahead")
	}
	if _, err := psim.New(psim.Config{Shards: 1, Lookahead: 1}, nil); err == nil {
		t.Fatal("accepted empty LP set")
	}
}

// TestMailboxOrder pins Drain's canonical order directly: cycle first,
// then source rank, then push order.
func TestMailboxOrder(t *testing.T) {
	leakcheck.Check(t)
	a, b := &psim.Mailbox[int]{}, &psim.Mailbox[int]{}
	a.Push(5, 1)
	a.Push(5, 2)
	a.Push(9, 3)
	b.Push(4, 10)
	b.Push(5, 11)
	b.Push(9, 12)
	type rec struct {
		src int
		at  uint64
		v   int
	}
	var got []rec
	psim.Drain([]*psim.Mailbox[int]{a, b}, func(src int, at uint64, v int) {
		got = append(got, rec{src, at, v})
	})
	want := []rec{{1, 4, 10}, {0, 5, 1}, {0, 5, 2}, {1, 5, 11}, {0, 9, 3}, {1, 9, 12}}
	if len(got) != len(want) {
		t.Fatalf("drained %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if a.Len() != 0 || b.Len() != 0 {
		t.Fatal("mailboxes not empty after drain")
	}
}
