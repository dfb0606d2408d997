package system

import (
	"runtime"
	"testing"
)

// TestParallelRunAllocParity pins the parallel path's per-run allocation
// overhead against the identical serial run (the 16-core sweep point).
// A shards run builds one event queue per tile plus per-tile views, so it
// allocates somewhat more often than serial; what it must not do is carry
// storage that scales with anything but the events in flight. Each queue
// keeps its pending events in one arena that starts at 64 slots and grows
// with the peak pending count, so 17 queues cost about what one does, and
// a shards=2 run stays within 1.15x of serial in bytes and 1.8x in
// allocations. A bytes regression here means per-tile setup started
// allocating storage sized by the wheel (or by the store working set)
// again; an allocation-count regression means it started allocating per
// bucket or per store.
func TestParallelRunAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs under allocation accounting")
	}
	// run measures like testing.AllocsPerRun — one warm-up run, then the
	// mean over measured runs with GOMAXPROCS pinned to 1 — and reports
	// bytes as well as allocations.
	run := func(shards int) (allocs, bytes float64) {
		cfg := psimBenchConfig(shards)
		once := func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		once()
		const runs = 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			once()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	serial, serialB := run(0)
	parallel, parallelB := run(2)
	t.Logf("allocs/run: serial=%.0f shards=2 %.0f (ratio %.2f)", serial, parallel, parallel/serial)
	t.Logf("bytes/run: serial=%.2f MB shards=2 %.2f MB (ratio %.2f)", serialB/1e6, parallelB/1e6, parallelB/serialB)
	if serial == 0 || serialB == 0 {
		t.Fatal("serial run reported zero allocations; measurement broken")
	}
	if ratio := parallel / serial; ratio > 1.8 {
		t.Errorf("parallel run allocates %.2fx the serial run (%.0f vs %.0f); per-tile setup regressed", ratio, parallel, serial)
	}
	if ratio := parallelB / serialB; ratio > 1.15 {
		t.Errorf("parallel run allocates %.2fx the serial run's bytes (%.2f vs %.2f MB); per-tile storage regressed", ratio, parallelB/1e6, serialB/1e6)
	}
}
