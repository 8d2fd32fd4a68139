// Command gcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	gcbench -table 4               # Table 4 (generational collector sweep)
//	gcbench -table 5 -repeat 0.05  # Table 5 at a larger workload scale
//	gcbench -table 5 -parallel 8   # fan runs out over 8 workers
//	gcbench -table 4 -sanitize     # verify heap invariants after every GC
//	gcbench -table 5 -trace t.jsonl         # capture a per-run GC trace
//	gcbench -table 5 -trace t.json -trace-format chrome  # Perfetto trace
//	gcbench -table 5 -metrics      # per-run metrics table after the sweep
//	gcbench -figure 2              # Figure 2 heap profiles
//	gcbench -table 5 -trace t.jsonl -trace-heap  # ...plus per-space occupancy
//	gcbench -experiment elide      # §7.2 scan-elision extension
//	gcbench -experiment adapt      # §9 online adaptive pretenuring
//	gcbench -experiment slo        # latency-SLO table (server traffic mixes)
//	gcbench -experiment oldgen     # old-generation collectors: copy vs mark-sweep vs mark-compact
//	gcbench -table 5 -old marksweep # any sweep with a non-moving old generation
//	gcbench -table 4 -adapt                 # attach the online advisor to every gen run
//	gcbench -table 4 -adapt -adapt-store s.jsonl  # ... and store the learned profiles
//	gcbench -table 4 -adapt -adapt-warm s.jsonl   # ... warm-started from a stored run
//	gcbench -experiment all        # everything, in paper order
//	gcbench -list                  # list benchmarks and experiments
//
// Experiment runs are deterministic and independent, so -parallel only
// changes wall-clock time: the rendered tables are byte-identical at
// every worker count — and so are captured trace files, whose timestamps
// are simulated cycles, never wall clock. -progress streams per-run
// events to stderr, which keeps long sweeps observable without
// disturbing the table on stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"tilgc/gcsim"
	"tilgc/internal/trace"
)

func main() {
	table := flag.Int("table", 0, "regenerate table N (1-7)")
	figure := flag.Int("figure", 0, "regenerate figure N (2)")
	experiment := flag.String("experiment", "", "named experiment (see -list), or 'all'")
	repeat := flag.Float64("repeat", gcsim.DefaultScale.Repeat,
		"workload repetition scale (1.0 = the paper's full iteration counts)")
	depth := flag.Float64("depth", 1.0,
		"structural recursion depth scale (1.0 = the paper's stack-depth profile)")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"experiment worker-pool size (1 = serial; output is identical either way)")
	progress := flag.Bool("progress", false, "stream per-run progress to stderr")
	sanitizeRuns := flag.Bool("sanitize", false,
		"run the heap-integrity sanitizer after every collection (slower; output is identical, violations panic)")
	traceOut := flag.String("trace", "",
		"capture a per-run GC trace of every experiment run to FILE (cycle-timestamped, byte-identical under -parallel)")
	traceFormat := flag.String("trace-format", "jsonl",
		"trace sink format: jsonl (schema-versioned, gctrace-readable) or chrome (Perfetto-loadable)")
	traceHeap := flag.Bool("trace-heap", false,
		"sample per-space heap occupancy (live/committed words) at every collection into the trace (needs -trace or -metrics)")
	threads := flag.Int("threads", 0,
		"simulated mutator threads per run (0/1 = single-threaded; only thread-scheduling workloads change results)")
	oldCollector := flag.String("old", "",
		"old-generation collector for every generational run: copy (default), marksweep, or markcompact")
	gcWorkers := flag.Int("gc-workers", 0,
		"parallel copying workers per collection (0/1 = serial; heap contents and client results are identical, pauses shard)")
	adaptRuns := flag.Bool("adapt", false,
		"attach the online adaptive-pretenuring advisor to every generational run (semispace runs are unaffected)")
	adaptStore := flag.String("adapt-store", "",
		"write the advisor profiles learned by every adaptive run to FILE as a warm-startable store (implies -adapt)")
	adaptWarm := flag.String("adapt-warm", "",
		"warm-start every adaptive run from the profile store at FILE (implies -adapt)")
	metrics := flag.Bool("metrics", false,
		"print every run's metrics registry (counters, gauges, pause histogram) after the experiment")
	list := flag.Bool("list", false, "list benchmarks and experiments")
	fuzzRun := flag.Bool("fuzz", false,
		"run the differential fuzzing fleet: corpus replay plus a seed sweep over the collector matrix")
	fuzzSeeds := flag.String("fuzz-seeds", "0..256",
		"seed range 'A..B' (half-open) or single seed for -fuzz")
	fuzzMinimize := flag.Bool("fuzz-minimize", false,
		"shrink failing programs to minimal reproducers (printed in corpus format)")
	fuzzCorpus := flag.String("fuzz-corpus", "internal/fuzz/corpus",
		"corpus directory replayed before the seed sweep")
	fuzzVerbose := flag.Bool("fuzz-verbose", false,
		"print one report line per seed (deterministic at any -parallel; CI byte-compares this)")
	flag.Parse()

	if *fuzzRun {
		//lint:ignore detflow -parallel defaults to NumCPU but only sizes the worker pool; fuzz reports are assembled in seed order and CI byte-compares them at every -parallel level
		runFuzzCLI(*fuzzSeeds, *fuzzCorpus, *parallel, *fuzzMinimize, *fuzzVerbose, *progress)
		return
	}

	if *traceFormat != "jsonl" && *traceFormat != "chrome" {
		fmt.Fprintf(os.Stderr, "gcbench: unknown -trace-format %q (want jsonl or chrome)\n", *traceFormat)
		os.Exit(2)
	}
	if *traceHeap && *traceOut == "" && !*metrics {
		fmt.Fprintln(os.Stderr, "gcbench: -trace-heap needs -trace or -metrics: it samples into the trace")
		os.Exit(2)
	}

	if *list {
		fmt.Println("Benchmarks:")
		for _, n := range gcsim.Benchmarks() {
			info, _ := gcsim.Describe(n)
			fmt.Printf("  %-13s %s\n", n, info.Description)
		}
		fmt.Println("Experiments:")
		for _, e := range gcsim.Experiments() {
			fmt.Printf("  %s\n", e)
		}
		return
	}

	oldc, ok := gcsim.ParseOldCollector(*oldCollector)
	if !ok {
		fmt.Fprintf(os.Stderr, "gcbench: unknown -old %q (want copy, marksweep, or markcompact)\n", *oldCollector)
		os.Exit(2)
	}

	opts := gcsim.RunOptions{Parallelism: *parallel, Sanitize: *sanitizeRuns, TraceHeap: *traceHeap,
		Threads: *threads, GCWorkers: *gcWorkers, OldCollector: oldc}
	if *progress {
		opts.Events = progressWriter
	}
	// Adaptive pretenuring: -adapt turns the advisor on for every
	// generational run; -adapt-warm seeds it from a stored profile and
	// -adapt-store collects what this invocation learned. The store sink
	// receives batches in input order, so the written file is byte-identical
	// at every -parallel level (the `adapt` CI job diffs exactly that).
	opts.Adapt = *adaptRuns || *adaptStore != "" || *adaptWarm != ""
	if *adaptWarm != "" {
		in, err := os.Open(*adaptWarm)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(1)
		}
		store, err := gcsim.ReadAdaptStore(in)
		in.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: reading -adapt-warm store: %v\n", err)
			os.Exit(1)
		}
		opts.AdaptWarm = store
	}
	var adaptProfiles []*gcsim.AdaptProfile
	if *adaptStore != "" {
		opts.AdaptSink = func(batch []*gcsim.AdaptProfile) {
			adaptProfiles = append(adaptProfiles, batch...)
		}
	}
	// Trace capture: the experiment renderers batch runs through the
	// harness internally, so the sink is how the per-run recorders reach
	// us. Batches arrive in the order the experiment issues them and each
	// batch is in input order, so the assembled file is deterministic at
	// every -parallel level.
	var traceRuns []*trace.RunData
	if *traceOut != "" || *metrics {
		opts.TraceSink = func(batch []*trace.RunData) {
			traceRuns = append(traceRuns, batch...)
		}
	}

	scale := gcsim.Scale{Repeat: *repeat, Depth: *depth}
	run := func(name string) {
		//lint:ignore detflow opts.Parallel defaults to NumCPU but only sizes the worker pool; batches land in issue order and each batch is input-ordered, so the output is identical at every -parallel level
		if err := gcsim.ExperimentOpts(os.Stdout, name, scale, opts); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(1)
		}
	}

	switch {
	case *table >= 1 && *table <= 7:
		run(fmt.Sprintf("table%d", *table))
	case *figure == 2:
		run("figure2")
	case *experiment == "all":
		fmt.Printf("(workload scale: repeat=%g depth=%g; see EXPERIMENTS.md)\n", *repeat, *depth)
		for _, e := range gcsim.Experiments() {
			run(e)
		}
	case *experiment != "":
		run(*experiment)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *adaptStore != "" {
		if err := writeAdaptStore(adaptProfiles, *adaptStore); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gcbench: wrote advisor store of %d profiles to %s\n",
			len(adaptProfiles), *adaptStore)
	}

	if opts.TraceSink != nil {
		f := trace.NewFile(traceRuns...)
		if *traceOut != "" {
			if err := writeTrace(f, *traceOut, *traceFormat); err != nil {
				fmt.Fprintln(os.Stderr, "gcbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "gcbench: wrote %s trace of %d runs to %s\n",
				*traceFormat, len(f.Runs), *traceOut)
		}
		if *metrics {
			fmt.Println()
			if err := f.WriteMetrics(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "gcbench:", err)
				os.Exit(1)
			}
		}
	}
}

// writeAdaptStore serializes the collected advisor profiles.
func writeAdaptStore(profiles []*gcsim.AdaptProfile, path string) error {
	store := &gcsim.AdaptStore{Profiles: profiles}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	err = store.WriteJSONL(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTrace renders the assembled trace file in the requested format.
func writeTrace(f *trace.File, path, format string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "chrome" {
		err = f.WriteChrome(out)
	} else {
		err = f.WriteJSONL(out)
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// progressWriter renders one run event per line on stderr.
func progressWriter(e gcsim.RunEvent) {
	label := e.Config.Label()
	switch e.Kind {
	case gcsim.EventRunStarted:
		fmt.Fprintf(os.Stderr, "[%3d/%3d] start   %s\n", e.Index+1, e.Total, label)
	case gcsim.EventRunFinished:
		if e.Err != nil {
			fmt.Fprintf(os.Stderr, "[%3d/%3d] FAILED  %s: %v\n", e.Index+1, e.Total, label, e.Err)
			return
		}
		fmt.Fprintf(os.Stderr, "[%3d/%3d] done    %-40s %4d GCs  max-pause %.4fs  total %.3fs  (client %.3fs  gc-stack %.3fs  gc-copy %.3fs)\n",
			e.Index+1, e.Total, label, e.GCs, e.MaxPauseSec, e.TotalSec,
			e.Times.Client.Seconds(), e.Times.GCStack.Seconds(), e.Times.GCCopy.Seconds())
	}
}
