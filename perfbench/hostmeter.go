package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalization. On a shared virtual machine the speed of the
// same code drifts by ±25% over tens of seconds: neighbours' load slows
// the vCPUs while the process keeps running (its thread CPU time tracks
// wall time). A median over a 25 s window still moves 10-20% from run to
// run, wider than any useful regression bound.
//
// The host meter measures that drift as it happens. A goroutine locked to
// its own OS thread runs a fixed benchmark-owned kernel of about 1 ms
// every 25 ms and records the kernel's thread CPU time. The ratio of that
// time to refKernel is the host's slowdown at that moment: 1 on a host as
// fast as the reference, 1.2 on one 20% slower. Every host time the
// benchmark reports is divided by the mean slowdown over the interval it
// was measured in, and raw times are printed beside them. The kernel takes
// about 4% of one CPU and no part of the program under test runs in it.

// refKernel is the kernel's thread CPU time on the reference host: the
// 2-vCPU Intel Xeon these bounds were set on, in its fast state.
const refKernel = 900 * time.Microsecond

const (
	kernelIters   = 300_000
	kernelPeriod  = 25 * time.Millisecond
	kernelTableSz = 1 << 15 // 256 KiB of uint64s
)

type hostSample struct {
	at      time.Time
	cpuTime time.Duration
	// rss is the process's resident set in bytes when the sample was
	// taken, or 0 if unavailable.
	rss int64
}

type hostMeter struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []hostSample
}

// startHostMeter starts the sampling goroutine; stop ends it.
func startHostMeter() *hostMeter {
	m := &hostMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *hostMeter) run() {
	defer close(m.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	table := make([]uint64, kernelTableSz)
	x := uint64(88172645463325252)
	tick := time.NewTicker(kernelPeriod)
	defer tick.Stop()
	for {
		c0 := threadCPU()
		for i := 0; i < kernelIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&(kernelTableSz-1)] += x
		}
		c1 := threadCPU()
		if c0 > 0 && c1 > c0 {
			m.mu.Lock()
			m.samples = append(m.samples, hostSample{at: time.Now(), cpuTime: c1 - c0, rss: residentBytes()})
			m.mu.Unlock()
		}
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

func (m *hostMeter) close() {
	close(m.stop)
	<-m.done
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID. Unlike
// getrusage(RUSAGE_THREAD), whose user/system split is scaled from timer
// ticks, it counts the thread's run time in nanoseconds.
const clockThreadCPUTime = 3

// threadCPU is the calling OS thread's CPU time, or 0 if unavailable.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// residentBytes is the process's current resident set size, read from
// /proc/self/statm, or 0 if unavailable.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

const rssDetail = "median resident set over the timed window, sampled every 25 ms"

// rssMB is the median resident set, in MB, of the samples taken in iv.
// A median over the hundreds of samples of a window does not move with the
// timing of single garbage collections, as the process's peak does.
func (m *hostMeter) rssMB(iv interval) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var mb []float64
	for _, s := range m.samples {
		if s.rss > 0 && !s.at.Before(iv.start) && !s.at.After(iv.end) {
			mb = append(mb, float64(s.rss)/(1<<20))
		}
	}
	return median(mb)
}

// slowdown is the host's mean slowdown against the reference over
// [from, to]. Intervals shorter than a few sampling periods are widened
// around their midpoint so at least a handful of samples count. Without
// samples (a meter that is nil or not running) it is 1.
func (m *hostMeter) slowdown(from, to time.Time) float64 {
	if m == nil {
		return 1
	}
	const minSpan = 8 * kernelPeriod
	if span := to.Sub(from); span < minSpan {
		mid := from.Add(span / 2)
		from, to = mid.Add(-minSpan/2), mid.Add(minSpan/2)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range m.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.cpuTime
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return float64(sum) / float64(n) / float64(refKernel)
}

// interval is one measured span of host time.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// setSetup reports setup_s: the median over the set-ups of their
// normalized durations.
func setSetup(rep *report, m *hostMeter, setups []interval, what string) {
	var norm, raw []float64
	for _, iv := range setups {
		raw = append(raw, iv.dur().Seconds())
		norm = append(norm, iv.dur().Seconds()/m.slowdown(iv.start, iv.end))
	}
	rep.set("setup_s", median(norm), fmt.Sprintf("median of %d set-ups: %s; raw median %.4g s", len(setups), what, median(raw)))
}
