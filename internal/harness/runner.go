package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/trace"
)

// EventKind distinguishes the progress events RunAll emits.
type EventKind int

const (
	// EventRunStarted fires when a worker picks a run off the queue.
	EventRunStarted EventKind = iota
	// EventRunFinished fires when a run completes (or fails).
	EventRunFinished
)

// Event is one progress notification from RunAll. Finished events carry
// the run's headline measurements (collection count, longest pause,
// simulated total) so long sweeps are observable before the assembled
// table renders.
type Event struct {
	Kind   EventKind
	Index  int // position of the run in the RunAll input slice
	Total  int // number of runs in the batch
	Config RunConfig

	// The fields below are populated on EventRunFinished only.
	Err         error
	GCs         uint64  // collections the run performed
	MaxPauseSec float64 // longest single collection, simulated seconds
	TotalSec    float64 // simulated mutator+collector seconds
	// Times is the run's full cycle breakdown (client / gc-stack /
	// gc-copy), so sweeps expose where the cycles went per run, not just
	// the total.
	Times costmodel.Breakdown
}

// Options configures RunAll.
type Options struct {
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS.
	// Parallelism 1 is the serial path: runs execute one at a time in
	// input order.
	Parallelism int
	// Events, when non-nil, receives progress notifications. Calls are
	// serialized (never concurrent), but arrive in completion order —
	// not input order — when Parallelism > 1. The hook runs on worker
	// goroutines and delays run dispatch while it executes, so it
	// should be cheap.
	Events func(Event)
	// Sanitize enables the heap-integrity sanitizer on every run in the
	// batch (see RunConfig.Sanitize).
	Sanitize bool
	// TraceHeap enables per-space heap-occupancy sampling on every traced
	// run in the batch (see RunConfig.TraceHeap).
	TraceHeap bool
	// TraceSink, when non-nil, attaches a telemetry recorder to every run
	// in the batch (see RunConfig.Trace) and receives each batch's
	// per-run trace data after the batch assembles — in input order,
	// whatever the parallelism, with failed runs skipped. The experiment
	// renderers call RunAll internally without surfacing RunResults, so
	// this is how callers like gcbench capture traces of a whole sweep;
	// batches arrive in the order the experiment issues them.
	TraceSink func([]*trace.RunData)
	// Adapt attaches the online pretenuring advisor to every generational
	// run in the batch (see RunConfig.Adapt). Semispace runs are left
	// unchanged: the advisor has no tenured generation to steer there.
	Adapt bool
	// AdaptWarm, when non-nil, warm-starts each adaptive run from the
	// store's most recent profile for its workload (no-op for workloads
	// the store has never seen).
	AdaptWarm *adapt.Store
	// AdaptSink, when non-nil, implies Adapt and receives each batch's
	// storable advisor profiles after the batch assembles — in input
	// order, whatever the parallelism, with failed and non-adaptive runs
	// skipped. Like TraceSink, this is how sweep callers (gcbench
	// -adapt-store) persist a whole sweep's advisor state byte-identically
	// at any parallelism.
	AdaptSink func([]*adapt.RunProfile)
	// Threads, when nonzero, is the simulated mutator thread count of
	// every config in the batch that does not set its own (see
	// RunConfig.Threads); Run rejects a negative one. Simulated results
	// are thread-count-dependent only for workloads that schedule across
	// threads.
	Threads int
	// GCWorkers, when nonzero, is the parallel-copy worker count of every
	// config in the batch that does not set its own (see
	// RunConfig.GCWorkers); Run rejects a negative one. Heap contents and
	// client results are identical at every worker count; only pause
	// accounting shards.
	GCWorkers int
	// OldCollector, when not OldCopy, selects the non-moving
	// old-generation collector for every generational config in the
	// batch that does not set its own (see RunConfig.OldCollector).
	// Semispace runs are left on the copying default — they have no old
	// generation. Client results are identical across old-generation
	// collectors; only GC cost, pause shape, and footprint move.
	OldCollector core.OldCollector
}

// workers resolves the pool size for a batch of n runs.
func (o Options) workers(n int) int { return poolSize(n, o.Parallelism) }

// poolSize is the single pool-sizing resolver for every fan-out path in
// the harness (RunAll batches and ParallelEach loops): parallelism <= 0
// means GOMAXPROCS, and the pool never exceeds the n work items. The
// GOMAXPROCS read is deliberately confined here — it sizes only the
// goroutine pool, never what any run computes; input-order assembly
// keeps batch output byte-identical at every pool size, which CI
// enforces by comparing serial against parallel output.
func poolSize(n, parallelism int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	return parallelism
}

// ParallelEach runs fn(i) for every i in [0, n) across a bounded worker
// pool and returns when all calls complete. parallelism <= 0 means
// GOMAXPROCS; parallelism 1 is the serial path, executing indices in
// order. Work is claimed off a shared atomic counter, so callers that
// write fn's results into out[i] get input-order-deterministic output at
// any parallelism — the same discipline RunAll uses for run batches, and
// what the fuzz driver fans seed ranges over.
func ParallelEach(n, parallelism int, fn func(i int)) {
	if n <= 0 {
		return
	}
	parallelism = poolSize(n, parallelism)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := parallelism; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunAll executes every config, fanning the runs out across a bounded
// worker pool, and assembles the results in input order: out[i] is
// Run(cfgs[i]). Because runs are deterministic and share no mutable
// state beyond the singleflight calibration cache (see the package
// comment), the assembled slice — and any table rendered from it — is
// identical at every parallelism level, including the serial
// Parallelism-1 path.
//
// All runs are attempted even when some fail; the returned error is the
// first failure in input order, and failed slots are nil.
func RunAll(cfgs []RunConfig, opts Options) ([]*RunResult, error) {
	results := make([]*RunResult, len(cfgs))
	errs := make([]error, len(cfgs))

	var evMu sync.Mutex
	emit := func(e Event) {
		if opts.Events == nil {
			return
		}
		evMu.Lock()
		defer evMu.Unlock()
		opts.Events(e)
	}

	ParallelEach(len(cfgs), opts.workers(len(cfgs)), func(i int) {
		emit(Event{Kind: EventRunStarted, Index: i, Total: len(cfgs), Config: cfgs[i]})
		cfg := cfgs[i]
		if opts.Sanitize {
			cfg.Sanitize = true
		}
		if opts.TraceSink != nil {
			cfg.Trace = true
		}
		if opts.TraceHeap && cfg.Trace {
			cfg.TraceHeap = true
		}
		if (opts.Adapt || opts.AdaptSink != nil) && cfg.Kind != KindSemispace {
			cfg.Adapt = true
		}
		if opts.Threads != 0 && cfg.Threads == 0 {
			cfg.Threads = opts.Threads
		}
		if opts.GCWorkers != 0 && cfg.GCWorkers == 0 {
			cfg.GCWorkers = opts.GCWorkers
		}
		if opts.OldCollector != core.OldCopy && cfg.Kind != KindSemispace && cfg.OldCollector == core.OldCopy {
			cfg.OldCollector = opts.OldCollector
		}
		if cfg.Adapt && cfg.AdaptWarm == nil {
			cfg.AdaptWarm = opts.AdaptWarm.Find(cfg.Workload)
		}
		r, err := Run(cfg)
		results[i], errs[i] = r, err
		done := Event{Kind: EventRunFinished, Index: i, Total: len(cfgs), Config: cfgs[i], Err: err}
		if r != nil {
			done.GCs = r.Stats.NumGC
			done.MaxPauseSec = costmodel.Cycles(r.Stats.MaxPauseCycles).Seconds()
			done.TotalSec = r.Total()
			done.Times = r.Times
		}
		emit(done)
	})

	if opts.TraceSink != nil {
		batch := make([]*trace.RunData, 0, len(results))
		for _, r := range results {
			if r != nil && r.Trace != nil {
				batch = append(batch, r.Trace.Data(r.Config.Label()))
			}
		}
		opts.TraceSink(batch)
	}
	if opts.AdaptSink != nil {
		batch := make([]*adapt.RunProfile, 0, len(results))
		for _, r := range results {
			if r != nil && r.AdaptProfile != nil {
				batch = append(batch, r.AdaptProfile)
			}
		}
		opts.AdaptSink(batch)
	}

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
