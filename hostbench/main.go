// Command hostbench measures the simulator's own host time, next to the
// simulated cycles it models: how long the simulator takes, how much Go
// memory it uses, and whether its answers are right. Each of its four
// workloads puts most of the host work in one layer of the system; see
// README.md for the workloads, the metrics and how to read them.
//
// Build and run it from the repository root through the wrapper, which
// keeps the build inside the checkout:
//
//	python3 hostbench/run.py --workload kb-markers --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {"iter_s": {"value": 0.71, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; --trace 1 runs the
// separate traced run and reports the per-layer ones instead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         bool
	scale         string
	writeExpected string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's report, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: kb-markers, stack-scan, server-traced or fuzz-fleet")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; it moves the fuzz-fleet seed range and nothing else")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds to measure for")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "input sizes: full, or quick for the self-test")
	flag.StringVar(&o.writeExpected, "write-expected", "", "record this run's simulated facts as the pinned ones into `file` instead of checking them")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs one benchmark run and returns its report.
func run(o options, log io.Writer) (*result, error) {
	sz, ok := scaleSizes[o.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	w, err := newWorkload(o.workload, sz, o.seed)
	if err != nil {
		return nil, err
	}
	c, err := newChecker(o.scale, o.writeExpected != "", log)
	if err != nil {
		return nil, err
	}

	clock, alu0 := clockNS(), refALU()
	values := map[string]float64{}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if err := tracedRun(w, c, o.seconds, values); err != nil {
			return nil, err
		}
	} else {
		r := measureLoop(w, c, o.seconds)
		values["iter_s"] = median(r.iters)
		values["setup_s"] = median(r.setups)
		fmt.Fprintf(log, "hostbench: %d iterations, %d set-ups; wall-clock medians: iteration %.4f s, set-up %.4f s\n",
			len(r.iters), len(r.setups), median(r.iterWall), median(r.setupWall))
		values["alloc_mb"] = float64(r.alloc.allocBytes) / float64(len(r.iters)) / 1e6
		values["retained_mb"] = float64(retainedBytes()) / 1e6
	}
	alu1 := refALU()
	values["bench.clock_ns"] = clock
	values["bench.ref_alu_s"] = (alu0 + alu1) / 2
	values["pass_frac"] = float64(c.attempted-c.failed) / float64(max(c.attempted, 1))
	fmt.Fprintf(log, "hostbench: %s seed %d: bench.clock_ns=%.1f bench.ref_alu_s=%.4f (start) %.4f (end), %d/%d checks passed\n",
		o.workload, o.seed, clock, alu0, alu1, c.attempted-c.failed, c.attempted)

	if o.writeExpected != "" {
		if err := c.writeExpected(o.writeExpected, o.scale); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: c.failed == 0 && c.attempted > 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// tracedRun is the separate traced run. Each step runs a set-up, an
// untraced iteration as the measured run does, and a traced iteration
// under the CPU profiler, so the two iterations see the same machine
// regime; the median of the steps' ratios is the tracing overhead.
// Which of the two runs first alternates from step to step, so neither
// always follows the set-up. Steps repeat for about seconds seconds.
// Layer times are medians over the traced iterations; counts are per
// iteration.
func tracedRun(w workload, c *checker, seconds float64, values map[string]float64) error {
	var setups, untraced, traced, overhead []float64
	var goAlloc goStats
	var samples []layerSample
	self := map[string]float64{}
	runUntraced := func() {
		before := readGoStats()
		t := time.Now()
		w.iterate(c)
		untraced = append(untraced, time.Since(t).Seconds())
		goAlloc = addGoStats(goAlloc, readGoStats().sub(before))
	}
	runTraced := func() error {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		l := layerSample{}
		t := time.Now()
		extra := w.iterateTraced(c, l)
		took := time.Since(t)
		pprof.StopCPUProfile()
		traced = append(traced, (took - extra).Seconds())
		samples = append(samples, l)
		return addPackageSelf(self, prof.Bytes())
	}
	start := time.Now()
	for {
		t := time.Now()
		w.setUp(c)
		setups = append(setups, time.Since(t).Seconds())
		if len(setups)%2 == 1 {
			runUntraced()
		}
		if err := runTraced(); err != nil {
			return err
		}
		if len(setups)%2 == 0 {
			runUntraced()
		}
		overhead = append(overhead, traced[len(traced)-1]/untraced[len(untraced)-1])
		step := median(setups) + median(untraced) + median(traced)
		if time.Since(start).Seconds()+step > seconds {
			break
		}
	}

	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for _, l := range samples {
		for _, name := range sortedKeys(l) {
			if !known[name] {
				return fmt.Errorf("layer metric %q is not in the per-layer list", name)
			}
		}
	}
	for _, d := range perLayer {
		xs := make([]float64, len(samples))
		for i, l := range samples {
			xs[i] = l[d.name]
		}
		values[d.name] = median(xs)
	}
	values[w.setupLayer()] = median(setups)
	n := float64(len(untraced))
	values["goruntime.gc_cpu_s"] = goAlloc.gcCPU / n
	values["goruntime.gc_cycles"] = float64(goAlloc.gcCycles) / n
	values["goruntime.alloc_objects"] = float64(goAlloc.allocObjects) / n
	var total float64
	for _, k := range sortedKeys(self) {
		total += self[k]
	}
	for _, p := range pprofPackages {
		values["pprof."+p] = self[p] / max(total, 1)
	}
	values["bench.untraced_iter_s"] = median(untraced)
	values["bench.traced_iter_s"] = median(traced)
	values["bench.trace_overhead"] = median(overhead)
	return nil
}
