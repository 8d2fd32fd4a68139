package fuzz

import (
	"fmt"
	"io"
	"sync"

	"tilgc/internal/harness"
)

// minimizeCap bounds how many failing seeds a sweep minimizes;
// minimization re-runs the program thousands of times.
const minimizeCap = 5

// Options configures a seed sweep.
type Options struct {
	// From and To bound the seed range [From, To).
	From, To uint64
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallelism int
	// Minimize shrinks the first failing program of each of the first
	// five failing seeds to a small reproducer.
	Minimize bool
	// Progress, when non-nil, receives (seeds done, total, failures so
	// far) after each seed completes. Calls are serialized but arrive in
	// completion order.
	Progress func(done, total, failures int)
}

// Minimized pairs a failure with its shrunken reproducer.
type Minimized struct {
	Failure Failure
	Program *Program
	Evals   int
}

// Report is the outcome of a sweep. All slices are in seed order,
// whatever the parallelism, so a rendered report is byte-identical at
// every parallelism level.
type Report struct {
	From, To  uint64
	Results   []SeedResult
	Minimized []Minimized
}

// FailureCount returns the total failures across every seed.
func (r *Report) FailureCount() int {
	n := 0
	for _, sr := range r.Results {
		n += len(sr.Failures)
	}
	return n
}

// RunSeeds sweeps the seed range across the full collector matrix. Seeds
// fan out over a worker pool, each running the whole matrix plus the
// run-twice, sanitizer, trace, and wrapper oracles. Results assemble in
// seed order, so the report is deterministic at any parallelism.
func RunSeeds(opts Options) *Report {
	if opts.To < opts.From {
		opts.To = opts.From
	}
	n := int(opts.To - opts.From)
	rep := &Report{From: opts.From, To: opts.To, Results: make([]SeedResult, n)}

	// Progress arrives in completion order; the mutex serializes the
	// callback, and results still assemble in seed order regardless.
	var progMu sync.Mutex
	var done, failSeen int
	progress := func(failures int) {
		if opts.Progress == nil {
			return
		}
		progMu.Lock()
		defer progMu.Unlock()
		done++
		failSeen += failures
		opts.Progress(done, n, failSeen)
	}

	harness.ParallelEach(n, opts.Parallelism, func(i int) {
		rep.Results[i] = CheckSeed(opts.From + uint64(i))
		progress(len(rep.Results[i].Failures))
	})

	if opts.Minimize {
		for _, sr := range rep.Results {
			if len(sr.Failures) == 0 || len(rep.Minimized) >= minimizeCap {
				continue
			}
			fail := sr.Failures[0]
			pred := FailurePredicate(fail, nil)
			min, evals := Minimize(Generate(sr.Seed), pred, 0)
			rep.Minimized = append(rep.Minimized, Minimized{Failure: fail, Program: min, Evals: evals})
		}
	}
	return rep
}

// Render writes the report as deterministic text. verbose includes one
// line per seed (the CI serial-vs-parallel byte-compare uses this);
// otherwise only failures and the summary appear.
func (r *Report) Render(w io.Writer, verbose bool) {
	for _, sr := range r.Results {
		if verbose {
			status := "ok"
			if len(sr.Failures) > 0 {
				status = fmt.Sprintf("FAIL(%d)", len(sr.Failures))
			}
			fmt.Fprintf(w, "seed %d %s fp=%s sum=%s %s\n",
				sr.Seed, sr.Profile, fmtHash(sr.FP), fmtHash(sr.Checksum), status)
		}
		for _, f := range sr.Failures {
			fmt.Fprintf(w, "FAIL %s\n", f)
		}
	}
	for _, m := range r.Minimized {
		fmt.Fprintf(w, "minimized seed %d (%s/%s) to %d ops in %d evals\n",
			m.Failure.Seed, m.Failure.Config, m.Failure.Kind, len(m.Program.Ops), m.Evals)
	}
	fmt.Fprintf(w, "fuzz: %d seeds [%d,%d), %d failure(s)\n",
		len(r.Results), r.From, r.To, r.FailureCount())
}
