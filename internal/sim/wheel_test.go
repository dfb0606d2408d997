package sim

import (
	"math/rand"
	"testing"
)

// fired is one executed event: its cycle, its scheduling order, and
// whether it was scheduled far enough out to take the heap path.
type fired struct {
	at   Cycle
	id   int
	heap bool
}

// lapBase is the cycle of the bucket driveLaps reuses.
const lapBase = 40

// driveLaps schedules events into one wheel bucket on three consecutive
// laps (cycles lapBase + k*wheelSize, k = 0, 1, 2). Laps 1 and 2 each hold
// two heap entries scheduled at cycle 0, a full lap or more ahead, and
// three wheel entries: two scheduled 255 cycles ahead, one cycle after the
// previous lap drained the bucket, and one scheduled at its own cycle
// while the bucket is draining. drive runs the engine to completion.
func driveLaps(e *Engine, drive func(*Engine)) []fired {
	var log []fired
	id := 0
	var at func(c Cycle, then func())
	at = func(c Cycle, then func()) {
		ev := fired{at: c, id: id, heap: c-e.Now() >= wheelSize}
		id++
		e.At(c, "lap", func() {
			log = append(log, ev)
			if then != nil {
				then()
			}
		})
	}
	at(lapBase, nil)
	at(lapBase, nil)
	for lap := Cycle(1); lap < 3; lap++ {
		c := lapBase + lap*wheelSize
		at(c, nil)
		at(c, nil)
		e.At(c-wheelSize+1, "arm", func() {
			at(c, func() { at(c, nil) })
			at(c, nil)
		})
	}
	drive(e)
	return log
}

// TestWheelBucketReuseAcrossLaps pins (cycle, seq) order for a bucket
// reused on successive laps, with heap entries due at the same cycles,
// under every way of driving the engine.
func TestWheelBucketReuseAcrossLaps(t *testing.T) {
	drivers := map[string]func(*Engine){
		"Run": func(e *Engine) { e.Run(0) },
		"Step": func(e *Engine) {
			for e.Pending() > 0 {
				e.Step()
			}
		},
		"RunUntil": func(e *Engine) {
			for end := Cycle(0); e.Pending() > 0; end += 37 {
				e.RunUntil(end)
			}
		},
	}
	for name, drive := range drivers {
		log := driveLaps(NewEngine(), drive)
		if len(log) == 0 {
			t.Fatalf("%s: nothing ran", name)
		}
		perCycle := map[Cycle][2]int{} // heap, wheel events fired per cycle
		for i, ev := range log {
			if i > 0 {
				p := log[i-1]
				if ev.at < p.at || (ev.at == p.at && ev.id < p.id) {
					t.Fatalf("%s: event (%d,#%d) fired after (%d,#%d)", name, ev.at, ev.id, p.at, p.id)
				}
			}
			n := perCycle[ev.at]
			if ev.heap {
				n[0]++
			} else {
				n[1]++
			}
			perCycle[ev.at] = n
		}
		for lap := Cycle(1); lap < 3; lap++ {
			c := lapBase + lap*wheelSize
			if n := perCycle[c]; n[0] != 2 || n[1] != 3 {
				t.Errorf("%s: cycle %d ran %d heap + %d wheel events, want 2 + 3", name, c, n[0], n[1])
			}
		}
	}
}

// TestArenaBoundedByPeakPending drives a population of self-rescheduling
// events that swells and shrinks, and requires the arena's capacity to
// track the peak number of pending events, not the wheel's size or any
// bucket's burst.
func TestArenaBoundedByPeakPending(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	peak, ran := 0, 0
	var fn Event
	sched := func(d Cycle) {
		e.After(d, "t", fn)
		peak = max(peak, e.Pending())
	}
	fn = func() {
		ran++
		// Grow toward ~400 pending, shrink toward ~20, then grow toward
		// ~150, so buckets and the heap see bursts well above the seed.
		target := 400
		switch {
		case ran > 120000:
			return
		case ran > 80000:
			target = 150
		case ran > 40000:
			target = 20
		}
		d := Cycle(rng.Intn(4))
		if rng.Intn(8) == 0 {
			d = Cycle(200 + rng.Intn(200)) // wheel tail and heap
		}
		switch p := e.Pending(); {
		case p < target:
			sched(d)
			sched(Cycle(rng.Intn(3)))
		case p > target && rng.Intn(2) == 0:
		default:
			sched(d)
		}
	}
	for i := 0; i < 8; i++ {
		sched(Cycle(i))
	}
	e.Run(0)
	if peak < 300 {
		t.Fatalf("peak pending %d; workload did not swell", peak)
	}
	if limit := max(arenaSeed, 2*peak); cap(e.arena) > limit {
		t.Fatalf("arena capacity %d after peak of %d pending, want <= %d", cap(e.arena), peak, limit)
	}
}

// noop is a package-level callback, so scheduling it allocates no closure.
func noop() {}

// TestFreshEngineFirstScheduleAllocs pins the cost of bringing a queue up:
// the zero EventQueue needs no initialization, and the first near-future
// schedule allocates the arena once — the seed then holds arenaSeed
// pending events with no further allocation. The parallel engine builds
// one queue per tile per run, so this is per-run setup cost.
func TestFreshEngineFirstScheduleAllocs(t *testing.T) {
	const runs = 50
	engines := make([]*Engine, runs+1) // AllocsPerRun adds a warm-up call
	for i := range engines {
		engines[i] = NewEngine()
	}
	next := 0
	first := testing.AllocsPerRun(runs, func() {
		e := engines[next]
		next++
		e.At(5, "t", noop)
	})
	if first > 1 {
		t.Errorf("first schedule on a fresh engine: %.1f allocs, want <= 1", first)
	}
	for i := range engines {
		engines[i] = NewEngine()
	}
	next = 0
	seed := testing.AllocsPerRun(runs, func() {
		e := engines[next]
		next++
		for i := 0; i < arenaSeed; i++ {
			e.At(Cycle(i%wheelSize), "t", noop)
		}
	})
	if seed > 1 {
		t.Errorf("%d schedules on a fresh engine: %.1f allocs, want <= 1", arenaSeed, seed)
	}
}
