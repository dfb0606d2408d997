package psim_test

import (
	"testing"

	"repro/internal/psim"
	"repro/internal/sim"
	"repro/internal/testutil/leakcheck"
)

// TestMergeFrontZeroAlloc pins the mailbox merge front at zero
// steady-state allocations: once the rings have grown to their working
// size, a full push-and-drain round allocates nothing. This is the
// parallel counterpart of the serial engine's zero-allocs/event contract
// (the hotpath analyzer checks the same property statically via the
// //stash:hotpath annotations on Push, pop and Drain).
func TestMergeFrontZeroAlloc(t *testing.T) {
	leakcheck.Check(t)
	boxes := make([]*psim.Mailbox[int], 8)
	for i := range boxes {
		boxes[i] = &psim.Mailbox[int]{}
	}
	sink := 0
	visit := func(src int, at uint64, v int) { sink += v }
	round := func() {
		for i, b := range boxes {
			for k := 0; k < 32; k++ {
				b.Push(uint64(100+k), i+k)
			}
		}
		psim.Drain(boxes, visit)
	}
	round() // grow the rings to steady state
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("merge front allocated %.1f times per round, want 0", allocs)
	}
	_ = sink
}

// leanLP is the allocation test's LP: like psim_test's toyLP but its event
// argument is the LP pointer itself (pointer-shaped args box into `any`
// without allocating, exactly like the protocol's pooled *Msg), so every
// per-event allocation the test observes is the engine's, not the model's.
type leanLP struct {
	rank  int
	eng   *sim.Engine
	out   *psim.Mailbox[leanMsg]
	self  any // lp pointer pre-boxed once
	fn    func(any)
	hash  uint64
	rng   uint64
	count int
	limit int
}

type leanMsg struct {
	dst int
	val uint64
}

func (lp *leanLP) tick(any) {
	lp.rng = mix(lp.rng)
	r := lp.rng
	lp.hash = mix(lp.hash ^ uint64(lp.eng.Now()) ^ r)
	lp.count++
	if lp.count >= lp.limit {
		return
	}
	lp.eng.AtArg(lp.eng.Now()+sim.Cycle(r%3), "lean.tick", lp.fn, lp.self)
	if r%4 == 0 {
		lp.out.Push(uint64(lp.eng.Now()), leanMsg{dst: int(r>>8) & 7, val: r})
	}
}

// TestEpochLoopAllocsConstant bounds the whole parallel run path — barrier
// crossings, worker epoch loops, merge replay — to allocations independent
// of event count: a run executing ~19x the events may allocate only a
// fixed setup-and-warmup amount more (engine arenas, mailbox rings and
// goroutine stacks all reach steady state). If the per-event path
// allocated even once per event, the delta would be tens of thousands.
func TestEpochLoopAllocsConstant(t *testing.T) {
	leakcheck.Check(t)
	run := func(limit int) (events uint64) {
		lps := make([]*leanLP, 8)
		engines := make([]*sim.Engine, 8)
		boxes := make([]*psim.Mailbox[leanMsg], 8)
		for i := range lps {
			lp := &leanLP{rank: i, eng: sim.NewEngine(), out: &psim.Mailbox[leanMsg]{}, limit: limit, rng: mix(uint64(i) + 3)}
			lp.fn = lp.tick
			lp.self = lp
			lps[i] = lp
			engines[i] = lp.eng
			boxes[i] = lp.out
			lp.eng.AtArg(sim.Cycle(i%5), "lean.seed", lp.fn, lp.self)
		}
		eng, err := psim.New(psim.Config{Shards: 4, Lookahead: lookahead}, engines)
		if err != nil {
			t.Fatal(err)
		}
		n, err := eng.Run(func(end sim.Cycle) {
			psim.Drain(boxes, func(src int, at uint64, m leanMsg) {
				dst := lps[m.dst]
				dst.eng.AtArg(end+sim.Cycle(m.val%5), "lean.deliver", dst.fn, dst.self)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	small := testing.AllocsPerRun(5, func() { run(1000) })
	big := testing.AllocsPerRun(5, func() { run(10_000) })
	nSmall, nBig := run(1000), run(10_000)
	if nBig < 5*nSmall {
		t.Fatalf("scaling assumption broken: %d vs %d events", nSmall, nBig)
	}
	// The marginal allocation rate must be warm-up noise only: the small
	// run has already grown the engine arenas and mailbox rings, so the
	// extra ~9x events may add at most a residual trickle of one-time
	// growth. A single allocation per event would read as 1.0 here.
	rate := (big - small) / float64(nBig-nSmall)
	t.Logf("allocs: %.0f for %d events, %.0f for %d events (marginal %.4f/event)", small, nSmall, big, nBig, rate)
	if rate > 0.02 {
		t.Fatalf("parallel hot loop allocates %.4f times per event, want warm-up-only (<= 0.02)", rate)
	}
}
