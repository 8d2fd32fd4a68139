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
//	gcbench -figure 2 -export-store f2.jsonl  # ...and their advisor store
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
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"tilgc/gcsim"
	"tilgc/internal/trace"
)

// cli is gcbench's parsed command line; defineFlags documents each field
// as its flag's help text.
type cli struct {
	table, figure, parallel, threads, gcWorkers int
	repeat, depth                               float64
	experiment, traceOut, traceFormat, old      string
	adaptStore, adaptWarm, exportStore          string
	progress, sanitize, traceHeap, adapt        bool
	metrics, list                               bool
	fuzz, fuzzMinimize, fuzzVerbose             bool
	fuzzSeeds, fuzzCorpus                       string
}

// defineFlags registers gcbench's flags on fs; fs.Parse fills the
// returned cli.
func defineFlags(fs *flag.FlagSet) *cli {
	f := &cli{}
	fs.IntVar(&f.table, "table", 0, "regenerate table N (1-7)")
	fs.IntVar(&f.figure, "figure", 0, "regenerate figure N (2)")
	fs.StringVar(&f.experiment, "experiment", "", "named experiment (see -list), or 'all'")
	fs.Float64Var(&f.repeat, "repeat", gcsim.DefaultScale.Repeat,
		"workload repetition scale (1.0 = the paper's full iteration counts)")
	fs.Float64Var(&f.depth, "depth", 1.0,
		"structural recursion depth scale (1.0 = the paper's stack-depth profile)")
	fs.IntVar(&f.parallel, "parallel", runtime.NumCPU(),
		"experiment worker-pool size (1 = serial; output is identical either way)")
	fs.BoolVar(&f.progress, "progress", false, "stream per-run progress to stderr")
	fs.BoolVar(&f.sanitize, "sanitize", false,
		"run the heap-integrity sanitizer after every collection (slower; output is identical, violations panic)")
	fs.StringVar(&f.traceOut, "trace", "",
		"capture a per-run GC trace of every experiment run to FILE (cycle-timestamped, byte-identical under -parallel)")
	fs.StringVar(&f.traceFormat, "trace-format", "jsonl",
		"trace sink format: jsonl (schema-versioned, gctrace-readable) or chrome (Perfetto-loadable)")
	fs.BoolVar(&f.traceHeap, "trace-heap", false,
		"sample per-space heap occupancy (live/committed words) at every collection into the trace (needs -trace)")
	fs.IntVar(&f.threads, "threads", 0,
		"simulated mutator threads per run (0/1 = single-threaded; only thread-scheduling workloads change results)")
	fs.StringVar(&f.old, "old", "",
		"old-generation collector for every generational run: copy (default), marksweep, or markcompact")
	fs.IntVar(&f.gcWorkers, "gc-workers", 0,
		"parallel copying workers per collection (0/1 = serial; heap contents and client results are identical, pauses shard)")
	fs.BoolVar(&f.adapt, "adapt", false,
		"attach the online adaptive-pretenuring advisor to every generational run (semispace runs are unaffected)")
	fs.StringVar(&f.adaptStore, "adapt-store", "",
		"write the advisor profiles learned by every adaptive run to FILE as a warm-startable store (implies -adapt)")
	fs.StringVar(&f.adaptWarm, "adapt-warm", "",
		"warm-start every adaptive run from the profile store at FILE (implies -adapt)")
	fs.StringVar(&f.exportStore, "export-store", "",
		"with -figure 2, also write the profiled runs to FILE as a warm-startable advisor store (sites at the paper's old% cutoff pretenured)")
	fs.BoolVar(&f.metrics, "metrics", false,
		"print every run's metrics (counters and pause histogram) after the experiment")
	fs.BoolVar(&f.list, "list", false, "list benchmarks and experiments")
	fs.BoolVar(&f.fuzz, "fuzz", false,
		"run the differential fuzzing fleet: corpus replay plus a seed sweep over the collector matrix")
	fs.StringVar(&f.fuzzSeeds, "fuzz-seeds", "0..256",
		"seed range 'A..B' (half-open) or single seed for -fuzz")
	fs.BoolVar(&f.fuzzMinimize, "fuzz-minimize", false,
		"shrink failing programs to minimal reproducers (printed in corpus format)")
	fs.StringVar(&f.fuzzCorpus, "fuzz-corpus", "internal/fuzz/corpus",
		"corpus directory replayed before the seed sweep")
	fs.BoolVar(&f.fuzzVerbose, "fuzz-verbose", false,
		"print one report line per seed (deterministic at any -parallel; CI byte-compares this)")
	return f
}

// usageError is a rejected flag value. gcbench exits 2 on it, as the
// flag package does on a malformed flag, and 1 on any other error.
type usageError string

func (e usageError) Error() string { return string(e) }

// exitCode is the status gcbench exits with after err.
func exitCode(err error) int {
	var u usageError
	if errors.As(err, &u) {
		return 2
	}
	return 1
}

// fail reports err and exits with its status.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "gcbench:", err)
	os.Exit(exitCode(err))
}

// check rejects flags that cannot be honoured, among them every flag set
// on fs that the chosen mode would ignore: with -fuzz only the -fuzz-*
// flags, -parallel and -progress apply, and without it no -fuzz-* flag
// does.
func (f *cli) check(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(fl *flag.Flag) {
		fuzzOnly := strings.HasPrefix(fl.Name, "fuzz-")
		switch {
		case err != nil:
		case f.fuzz && !fuzzOnly && fl.Name != "fuzz" && fl.Name != "parallel" && fl.Name != "progress":
			err = usageError(fmt.Sprintf("-%s does not apply to -fuzz", fl.Name))
		case !f.fuzz && fuzzOnly:
			err = usageError(fmt.Sprintf("-%s applies only to -fuzz", fl.Name))
		}
	})
	if err != nil {
		return err
	}
	if f.traceFormat != "jsonl" && f.traceFormat != "chrome" {
		return usageError(fmt.Sprintf("unknown -trace-format %q (want jsonl or chrome)", f.traceFormat))
	}
	if f.traceHeap && f.traceOut == "" {
		return usageError("-trace-heap needs -trace: it samples into the trace file")
	}
	table, figure, experiment := f.table != 0, f.figure != 0, f.experiment != ""
	if table && figure || table && experiment || figure && experiment {
		return usageError("-table, -figure and -experiment each name what to run: give one")
	}
	if f.exportStore != "" && f.figure != 2 {
		return usageError("-export-store needs -figure 2: it stores the Figure 2 profiles")
	}
	return nil
}

// session is what the run flags configure: the options and scale every
// experiment of this invocation runs with, and what the trace and
// advisor sinks collect for writing after the last experiment.
type session struct {
	opts          gcsim.RunOptions
	scale         gcsim.Scale
	traceRuns     []*trace.RunData
	adaptProfiles []*gcsim.AdaptProfile
}

// session translates the run flags into the options every experiment
// runs with. An unknown -old is a usageError; an unreadable -adapt-warm
// store is not.
func (f *cli) session() (*session, error) {
	oldc, ok := gcsim.ParseOldCollector(f.old)
	if !ok {
		return nil, usageError(fmt.Sprintf("unknown -old %q (want copy, marksweep, or markcompact)", f.old))
	}
	s := &session{scale: gcsim.Scale{Repeat: f.repeat, Depth: f.depth}}
	s.opts = gcsim.RunOptions{Parallelism: f.parallel, Sanitize: f.sanitize, TraceHeap: f.traceHeap,
		Threads: f.threads, GCWorkers: f.gcWorkers, OldCollector: oldc}
	if f.progress {
		s.opts.Events = progressWriter
	}
	// Adaptive pretenuring: -adapt turns the advisor on for every
	// generational run; -adapt-warm seeds it from a stored profile and
	// -adapt-store collects what this invocation learned. The store sink
	// receives batches in input order, so the written file is byte-identical
	// at every -parallel level (the `adapt` CI job diffs exactly that).
	s.opts.Adapt = f.adapt || f.adaptStore != "" || f.adaptWarm != ""
	if f.adaptWarm != "" {
		in, err := os.Open(f.adaptWarm)
		if err != nil {
			return nil, err
		}
		store, err := gcsim.ReadAdaptStore(in)
		in.Close()
		if err != nil {
			return nil, fmt.Errorf("reading -adapt-warm store: %v", err)
		}
		s.opts.AdaptWarm = store
	}
	if f.adaptStore != "" {
		s.opts.AdaptSink = func(batch []*gcsim.AdaptProfile) {
			s.adaptProfiles = append(s.adaptProfiles, batch...)
		}
	}
	// Trace capture: the experiment renderers batch runs through the
	// harness internally, so the sink is how the per-run recorders reach
	// us. Batches arrive in the order the experiment issues them and each
	// batch is in input order, so the assembled file is deterministic at
	// every -parallel level.
	if f.traceOut != "" || f.metrics {
		s.opts.TraceSink = func(batch []*trace.RunData) {
			s.traceRuns = append(s.traceRuns, batch...)
		}
	}
	return s, nil
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := f.check(flag.CommandLine); err != nil {
		fail(err)
	}

	if f.fuzz {
		//lint:ignore detflow -parallel defaults to NumCPU but only sizes the worker pool; fuzz reports are assembled in seed order and CI byte-compares them at every -parallel level
		runFuzzCLI(f.fuzzSeeds, f.fuzzCorpus, f.parallel, f.fuzzMinimize, f.fuzzVerbose, f.progress)
		return
	}

	if f.list {
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

	s, err := f.session()
	if err != nil {
		fail(err)
	}
	run := func(name string) {
		//lint:ignore detflow opts.Parallelism defaults to NumCPU but only sizes the worker pool; batches arrive in the order the experiment runs them and each is input-ordered, so the output is identical at every -parallel level
		if err := gcsim.ExperimentOpts(os.Stdout, name, s.scale, s.opts); err != nil {
			fail(err)
		}
	}

	switch {
	case f.table >= 1 && f.table <= 7:
		run(fmt.Sprintf("table%d", f.table))
	case f.figure == 2 && f.exportStore != "":
		//lint:ignore detflow as for ExperimentOpts: opts.Parallelism only sizes the worker pool, and Figure 2's runs are input-ordered
		store, err := gcsim.Figure2Store(os.Stdout, s.scale, s.opts)
		if err != nil {
			fail(err)
		}
		//lint:ignore detflow the store holds one profile per Figure 2 run in input order, so its bytes are the same at every -parallel level
		if err := writeAdaptStore(store.Profiles, f.exportStore); err != nil {
			fail(err)
		}
	case f.figure == 2:
		run("figure2")
	case f.experiment == "all":
		fmt.Printf("(workload scale: repeat=%g depth=%g; see EXPERIMENTS.md)\n", f.repeat, f.depth)
		for _, e := range gcsim.Experiments() {
			run(e)
		}
	case f.experiment != "":
		run(f.experiment)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if f.adaptStore != "" {
		if err := writeAdaptStore(s.adaptProfiles, f.adaptStore); err != nil {
			fail(err)
		}
	}

	if s.opts.TraceSink != nil {
		tf := trace.NewFile(s.traceRuns...)
		if f.traceOut != "" {
			if err := writeTrace(tf, f.traceOut, f.traceFormat); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "gcbench: wrote %s trace of %d runs to %s\n",
				f.traceFormat, len(tf.Runs), f.traceOut)
		}
		if f.metrics {
			fmt.Println()
			if err := tf.WriteMetrics(os.Stdout); err != nil {
				fail(err)
			}
		}
	}
}

// writeAdaptStore serializes advisor profiles as a store at path.
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
	if err == nil {
		fmt.Fprintf(os.Stderr, "gcbench: wrote advisor store of %d profiles to %s\n", len(profiles), path)
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
