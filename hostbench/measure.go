package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// goStats is a reading of the Go runtime's cumulative counters.
type goStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64 // seconds
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goStats{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
	}
}

// retainedBytes forces a collection and returns the Go heap still live.
func retainedBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime returns the CPU time the process has used so far: user and
// system time of all its threads, the Go runtime's included. On a guest
// kernel that accounts steal time it leaves out the time the hypervisor
// ran other guests on this guest's CPUs, which wall time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch times one piece of work on both clocks.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// read returns the CPU and wall seconds since the watch started.
func (s stopwatch) read() (cpu, wall float64) {
	return (cpuTime() - s.cpu).Seconds(), time.Since(s.wall).Seconds()
}

// loopResult is what one measuring loop saw.
type loopResult struct {
	setups, iters       []float64 // CPU seconds, one per set-up and per iteration
	setupWall, iterWall []float64 // the same in wall seconds
	alloc               goStats   // Go runtime counters summed over the iterations
}

// measureLoop alternates set-up and iteration for about seconds seconds
// and at least once: set-up, iteration, set-up, iteration, ... Host speed
// on a shared machine shifts in regimes that last seconds, so set-ups are
// spread over the whole run like the iterations, and each is reported as
// a median. A set-up much cheaper than an iteration is repeated after it
// until the step's set-up time reaches an eighth of the iteration's, at
// most maxSetups times, so its median rests on more than one sample. A
// step is not started when, at the wall medians seen so far, it would end
// past the deadline.
func measureLoop(w workload, c *checker, seconds float64) loopResult {
	const maxSetups = 16
	var r loopResult
	setUp := func() {
		s := startWatch()
		w.setUp(c)
		cpu, wall := s.read()
		r.setups, r.setupWall = append(r.setups, cpu), append(r.setupWall, wall)
	}
	start := time.Now()
	for {
		setUp()
		before := readGoStats()
		s := startWatch()
		w.iterate(c)
		cpu, wall := s.read()
		r.iters, r.iterWall = append(r.iters, cpu), append(r.iterWall, wall)
		r.alloc = addGoStats(r.alloc, readGoStats().sub(before))
		for k := 1; k < maxSetups && float64(k)*median(r.setups) < cpu/8; k++ {
			setUp()
		}

		next := median(r.setupWall) + median(r.iterWall)
		if time.Since(start).Seconds()+next > seconds {
			return r
		}
	}
}

func addGoStats(a, b goStats) goStats {
	return goStats{
		allocBytes:   a.allocBytes + b.allocBytes,
		allocObjects: a.allocObjects + b.allocObjects,
		gcCycles:     a.gcCycles + b.gcCycles,
		gcCPU:        a.gcCPU + b.gcCPU,
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// clockNS returns the host cost of one time.Now in nanoseconds.
func clockNS() float64 {
	const n = 200_000
	t := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return float64(time.Since(t).Nanoseconds()) / n
}

var aluSink uint64

// refALU times a fixed integer loop: a canary that tells a slow machine
// from a slow program. It is reported beside the results and never used
// to normalize them.
func refALU() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<25; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	aluSink = x
	return time.Since(t).Seconds()
}
