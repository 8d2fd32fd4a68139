// Package harness runs the paper's experiments: it executes benchmark
// workloads under configured collectors with the paper's k·Min memory
// budgets (Min = twice the maximum live data, measured by a calibration
// run), gathers the measurements the tables report, derives pretenuring
// policies from profiling runs, and renders Tables 2-7 and Figure 2.
//
// # Concurrency contract
//
// Run is safe to call from multiple goroutines, and RunAll fans a batch
// of runs out across a bounded worker pool. The contract:
//
//   - Per-run state (heap, stack, trace table, meter, mutator, profiler)
//     is constructed fresh inside Run and never shared, so concurrent
//     runs cannot observe each other.
//   - Workload implementations are stateless singletons (Run receives
//     all mutable state through its Mutator) and the workload registry
//     is immutable after package init.
//   - The only shared mutable state is the calibration cache. It is
//     keyed per (workload, canonical scale, pretenure cutoff) with
//     per-key singleflight: calibrations for distinct keys run
//     concurrently, while two runs needing the same key block on a
//     single calibration pass. ClearCalibrationCache must not be called
//     concurrently with runs.
//   - Every run is deterministic (simulated cost model, no wall-clock
//     or map-order dependence), so RunAll's input-order assembly is
//     byte-for-byte identical to the serial path at any parallelism.
package harness

import (
	"fmt"
	"sync"

	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
	"tilgc/internal/rt"
	"tilgc/internal/sanitize"
	"tilgc/internal/trace"
	"tilgc/internal/workload"
)

// CollectorKind selects one of the paper's four configurations (§3), plus
// the ablations.
type CollectorKind int

const (
	// KindSemispace is the §2.1 semispace baseline.
	KindSemispace CollectorKind = iota
	// KindGenerational is the two-generation collector.
	KindGenerational
	// KindGenMarkers adds generational stack collection (§5).
	KindGenMarkers
	// KindGenMarkersPretenure adds profile-driven pretenuring (§6).
	KindGenMarkersPretenure
	// KindGenMarkersPretenureElide adds §7.2 scan elision.
	KindGenMarkersPretenureElide
	// KindGenCards swaps the SSB for card marking (§4 ablation).
	KindGenCards
	// KindGenPretenure is pretenuring without stack markers (ablation).
	KindGenPretenure
	// KindGenAging disables immediate promotion: survivors age through an
	// intermediate space for 3 minor collections before tenuring (§7.2).
	KindGenAging
	// KindGenAgingPretenure adds profile-driven pretenuring on top of
	// aging — the configuration §7.2 predicts benefits most.
	KindGenAgingPretenure
)

// String names the configuration as the tables label it.
func (k CollectorKind) String() string {
	switch k {
	case KindSemispace:
		return "semispace"
	case KindGenerational:
		return "generational"
	case KindGenMarkers:
		return "gen+markers"
	case KindGenMarkersPretenure:
		return "gen+markers+pretenure"
	case KindGenMarkersPretenureElide:
		return "gen+markers+pretenure+elide"
	case KindGenCards:
		return "gen+cards"
	case KindGenPretenure:
		return "gen+pretenure"
	case KindGenAging:
		return "gen+aging"
	case KindGenAgingPretenure:
		return "gen+aging+pretenure"
	}
	return fmt.Sprintf("CollectorKind(%d)", int(k))
}

// RunConfig describes one experiment run.
type RunConfig struct {
	Workload string
	Scale    workload.Scale
	Kind     CollectorKind
	// K is the memory multiple of Min = 2·max-live; 0 means unconstrained.
	K float64
	// MarkerN overrides the stack-marker spacing (default 25, the paper's n).
	MarkerN int
	// Profile attaches the heap profiler to this run.
	Profile bool
	// PretenureCutoff overrides the old% cutoff (default 80).
	PretenureCutoff float64
	// Sanitize wraps the collector with the heap-integrity sanitizer
	// (internal/sanitize): every invariant pass runs after every
	// collection and a violation panics. Results are byte-identical to an
	// unsanitized run; only wall-clock time changes.
	Sanitize bool
	// Trace attaches a telemetry recorder (internal/trace) to this run:
	// phase spans, pause histograms, and per-site counters, exposed as
	// RunResult.Trace. Tracing charges nothing to the meter, so a traced
	// run measures exactly the same simulated times as an untraced one.
	Trace bool
	// TraceHeap additionally samples per-space occupancy (live and
	// committed words for every space) at the end of each collection,
	// emitted as gated heap records in the trace stream. Implies nothing
	// without Trace; sampling is guarded so untraced runs allocate nothing.
	TraceHeap bool
	// Adapt attaches the online pretenuring advisor (internal/adapt, §9)
	// to a generational run: per-site survival statistics accumulate
	// on-line and sites are promoted to (and demoted from) pretenured
	// allocation mid-run. Unlike tracing, the advisor charges its probe,
	// sample, and decision work to the meter's Adapt component. Requires a
	// generational kind; combining Adapt with KindSemispace is an error.
	Adapt bool
	// AdaptNoDemote disables the advisor's mistrain demotion (ablation:
	// the phase-shift experiment runs with and without it).
	AdaptNoDemote bool
	// AdaptWarm, when non-nil, seeds the advisor from a prior run's stored
	// profile before the first allocation (§9 warm start).
	AdaptWarm *adapt.RunProfile
	// TrainScale, when nonzero, derives the offline pretenuring policy
	// from a calibration at this scale instead of Scale — modelling the
	// paper's train-on-one-input, measure-on-another methodology. It only
	// affects kinds that consult the offline policy; the memory budget
	// still calibrates at Scale.
	TrainScale workload.Scale
	// Threads runs the workload over this many simulated mutator threads
	// (a round-robin scheduler in the workload layer; the server family
	// serves request r on thread r mod Threads). 0 or 1 is the
	// single-thread run, byte-identical to pre-thread builds. Calibration
	// always runs single-threaded: the live-set bound and site profile
	// are schedule-independent.
	Threads int
	// GCWorkers enables the deterministic parallel copying phases with
	// this many simulated workers (see core.GenConfig.Workers): identical
	// heap images at every W, pause wall time shrunk to the critical
	// path. 0 or 1 is the serial collector.
	GCWorkers int
	// DeferMajor runs over-threshold major collections as their own pause
	// at the next GC trigger instead of inside the minor that crossed the
	// threshold (see core.GenConfig.DeferMajor). Same collections, moved
	// pause boundaries; bounds the worst pause a latency window absorbs.
	DeferMajor bool
	// OldCollector selects the tenured-generation algorithm for
	// generational kinds: OldCopy (the zero value, the paper's copying
	// old generation), OldMarkSweep, or OldMarkCompact. Client results
	// are byte-identical across all three — only GC cost, pause shape,
	// and heap footprint move. Combining it with KindSemispace is an
	// error: the semispace baseline has no old generation.
	OldCollector core.OldCollector
}

// Label names the run for trace output and progress lines.
func (c RunConfig) Label() string {
	kind := c.Kind.String()
	if c.Adapt {
		kind += "+adapt"
	}
	s := fmt.Sprintf("%s/%s", c.Workload, kind)
	if c.OldCollector != core.OldCopy {
		s += " old=" + c.OldCollector.String()
	}
	if c.K > 0 {
		s += fmt.Sprintf(" k=%g", c.K)
	}
	if c.Threads > 1 {
		s += fmt.Sprintf(" t=%d", c.Threads)
	}
	if c.GCWorkers > 1 {
		s += fmt.Sprintf(" w=%d", c.GCWorkers)
	}
	if c.DeferMajor {
		s += " defer"
	}
	return s
}

// RunResult carries everything the tables need from one run.
type RunResult struct {
	Config   RunConfig
	Check    uint64
	Times    costmodel.Breakdown
	Stats    core.GCStats
	Updates  uint64 // barriered pointer updates (Table 2)
	MaxDepth int
	Profiler *prof.Profiler  // non-nil when Config.Profile
	Trace    *trace.Recorder // non-nil when Config.Trace; sealed by Finish
	Policy   *core.PretenurePolicy
	// Adapt is the advisor's frozen end-of-run state (non-nil when
	// Config.Adapt): decisions in emission order and per-site statistics.
	Adapt *adapt.Snapshot
	// AdaptProfile is the advisor's state packaged for the cross-run
	// profile store (non-nil when Config.Adapt).
	AdaptProfile *adapt.RunProfile
}

// Total returns total pseudo-seconds.
func (r *RunResult) Total() float64 { return r.Times.Total().Seconds() }

// GC returns collector pseudo-seconds.
func (r *RunResult) GC() float64 { return r.Times.GC().Seconds() }

// Client returns mutator pseudo-seconds.
func (r *RunResult) Client() float64 { return r.Times.Client.Seconds() }

// DefaultPretenureCutoff is the paper's old% cutoff for selecting
// pretenured sites (§6).
const DefaultPretenureCutoff = 80

// calibration caches per-workload measurements that experiments share.
type calibration struct {
	maxLiveWords uint64
	policy       *core.PretenurePolicy
}

// calEntry is one singleflight slot in the calibration cache: the first
// goroutine to claim a key runs the calibration inside the entry's Once
// while later arrivals block on it, so the same workload never calibrates
// twice, and distinct workloads calibrate concurrently.
type calEntry struct {
	once sync.Once
	cal  *calibration
	err  error
}

var (
	calMu    sync.Mutex
	calCache = map[string]*calEntry{}
)

// calKey keys the calibration cache. The scale is canonicalized first
// (Scale documents zero Depth as meaning 1.0) so equal scales never
// calibrate twice, and the cutoff participates because the derived policy
// depends on it.
func calKey(name string, s workload.Scale, cutoffPct float64) string {
	s = s.Canon()
	return fmt.Sprintf("%s/%g/%g/%g", name, s.Repeat, s.Depth, cutoffPct)
}

// Calibrate measures a workload's maximum live data and heap profile with
// an instrumented, generously-budgeted generational run, and derives the
// pretenuring policy using the given old% cutoff (0 means the paper's
// default, 80). Results are cached per (workload, canonical scale,
// cutoff) with per-key singleflight.
func Calibrate(name string, scale workload.Scale, cutoffPct float64) (*calibration, error) {
	if cutoffPct == 0 {
		cutoffPct = DefaultPretenureCutoff
	}
	key := calKey(name, scale, cutoffPct)
	calMu.Lock()
	e, ok := calCache[key]
	if !ok {
		e = &calEntry{}
		calCache[key] = e
	}
	calMu.Unlock()
	e.once.Do(func() { e.cal, e.err = calibrate(name, scale, cutoffPct) })
	return e.cal, e.err
}

// calibrate performs the two calibration passes for Calibrate.
func calibrate(name string, scale workload.Scale, cutoffPct float64) (*calibration, error) {
	w, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	// Pass 1: rough live estimate with a generous budget (major
	// collections are rare, so the high-water mark may be loose). The
	// profile for pretenuring comes from this pass.
	runPass := func(budget uint64, profiler *prof.Profiler) *core.Generational {
		table := rt.NewTraceTable()
		meter := costmodel.NewMeter()
		stack := rt.NewStack(table, meter)
		var hook core.Profiler
		if profiler != nil {
			hook = profiler
		}
		// Small nursery: frequent live-set samples for a tight estimate.
		col := core.NewGenerational(stack, meter, hook, core.GenConfig{
			BudgetWords:  budget,
			NurseryWords: 4 * 1024,
		})
		m := workload.NewMutator(col, stack, table, meter)
		w.Run(m, scale)
		col.Collect(true) // final major: exact live floor
		return col
	}
	profiler := prof.New(w.Sites())
	rough := runPass(1<<24, profiler)
	profiler.Finalize()
	// Pass 2: a tight budget (a few multiples of the rough maximum)
	// forces frequent major collections, sampling the true live-set peak
	// closely. Max live only moves up, so the rough value is the floor.
	tightBudget := 6 * rough.Stats().MaxLiveBytes / mem.WordSize
	if tightBudget < 64*1024 {
		tightBudget = 64 * 1024
	}
	tight := runPass(tightBudget, nil)
	maxLive := max(rough.Stats().MaxLiveBytes, tight.Stats().MaxLiveBytes)

	policy := profiler.Policy(cutoffPct, 32)
	// Attach the §7.2 manual-dataflow flags to the policy sites.
	onlyOld := map[obj.SiteID]bool{}
	for _, s := range w.OnlyOldSites() {
		onlyOld[s] = true
	}
	sites := map[obj.SiteID]core.PretenureDecision{}
	for _, id := range policy.Sites() {
		sites[id] = core.PretenureDecision{OnlyOldRefs: onlyOld[id]}
	}
	c := &calibration{
		maxLiveWords: maxLive / mem.WordSize,
		policy:       core.NewPretenurePolicy(sites),
	}
	if c.maxLiveWords < 256 {
		c.maxLiveWords = 256
	}
	return c, nil
}

// ClearCalibrationCache drops cached calibrations (tests). It must not
// run concurrently with Run or Calibrate.
func ClearCalibrationCache() {
	calMu.Lock()
	defer calMu.Unlock()
	calCache = map[string]*calEntry{}
}

// Run executes one experiment.
func Run(cfg RunConfig) (*RunResult, error) {
	w, err := workload.Get(cfg.Workload)
	if err != nil {
		return nil, err
	}
	cal, err := Calibrate(cfg.Workload, cfg.Scale, cfg.PretenureCutoff)
	if err != nil {
		return nil, err
	}
	// The offline policy normally comes from the same calibration as the
	// budget; TrainScale splits them so experiments can train the policy
	// on a different input than they measure (§6's methodology, and the
	// handicap the online advisor is compared against).
	polCal := cal
	if cfg.TrainScale != (workload.Scale{}) {
		polCal, err = Calibrate(cfg.Workload, cfg.TrainScale, cfg.PretenureCutoff)
		if err != nil {
			return nil, err
		}
	}

	// The paper's budget: k · Min, Min = 2 · max live.
	budget := uint64(1) << 24 // unconstrained default
	if cfg.K > 0 {
		budget = uint64(cfg.K * 2 * float64(cal.maxLiveWords))
	}
	markerN := cfg.MarkerN
	if markerN == 0 {
		markerN = 25
	}

	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	var profiler *prof.Profiler
	var profHook core.Profiler
	if cfg.Profile || cfg.Trace || cfg.Adapt {
		// Traced runs borrow the profiler's lifetime records for per-site
		// death accounting; the profiler charges nothing to the meter, so
		// attaching it does not perturb the simulated measurements.
		// Adaptive runs need it too: its lifetime event stream is the
		// advisor's stat feed.
		profiler = prof.New(w.Sites())
		profHook = profiler
	}
	var rec *trace.Recorder
	if cfg.Trace {
		rec = trace.NewRecorder(meter)
		rec.SetSiteNames(w.Sites())
		if cfg.TraceHeap {
			rec.EnableHeapSampling()
		}
		stack.SetTracer(rec)
		profiler.SetDeathSink(func(site obj.SiteID, bytes uint64) {
			rec.DeadSite(site, bytes/mem.WordSize)
		})
	}
	var engine *adapt.Engine
	if cfg.Adapt {
		if cfg.Kind == KindSemispace {
			return nil, fmt.Errorf("harness: %s: the adaptive advisor requires a generational collector", cfg.Label())
		}
		cutoff := cfg.PretenureCutoff
		if cutoff == 0 {
			cutoff = DefaultPretenureCutoff
		}
		engine = adapt.New(meter, rec, adapt.Params{
			PromotePPM:      uint64(cutoff * 10_000), // old% cutoff → ppm
			DisableDemotion: cfg.AdaptNoDemote,
		})
		profiler.SetObserver(engine)
		engine.WarmStart(cfg.AdaptWarm)
	}

	var col core.Collector
	var updates func() uint64
	var attachThreads func(*rt.ThreadSet)
	switch cfg.Kind {
	case KindSemispace:
		if cfg.OldCollector != core.OldCopy {
			return nil, fmt.Errorf("harness: %s: OldCollector %s requires a generational collector", cfg.Label(), cfg.OldCollector)
		}
		s := core.NewSemispace(stack, meter, profHook, core.SemispaceConfig{
			BudgetWords: budget,
			Workers:     cfg.GCWorkers,
			Trace:       rec,
		})
		col = s
		attachThreads = s.AttachThreads
		updates = func() uint64 { return 0 }
	default:
		gcfg := core.GenConfig{
			BudgetWords:  budget,
			NurseryWords: nurseryFor(budget),
			Workers:      cfg.GCWorkers,
			DeferMajor:   cfg.DeferMajor,
			OldCollector: cfg.OldCollector,
			Trace:        rec,
		}
		if cfg.Profile && cfg.K == 0 {
			// Unconstrained profiling runs (Figure 2) use a small nursery
			// so object lifetimes are sampled frequently.
			gcfg.NurseryWords = 4 * 1024
		}
		if engine != nil {
			gcfg.Advisor = engine
		}
		switch cfg.Kind {
		case KindGenerational:
		case KindGenMarkers:
			gcfg.MarkerN = markerN
		case KindGenMarkersPretenure:
			gcfg.MarkerN = markerN
			gcfg.Pretenure = polCal.policy
		case KindGenMarkersPretenureElide:
			gcfg.MarkerN = markerN
			gcfg.Pretenure = polCal.policy
			gcfg.ScanElision = true
		case KindGenCards:
			gcfg.UseCardTable = true
		case KindGenPretenure:
			gcfg.Pretenure = polCal.policy
		case KindGenAging:
			gcfg.AgingMinors = 3
		case KindGenAgingPretenure:
			gcfg.AgingMinors = 3
			gcfg.Pretenure = polCal.policy
		default:
			return nil, fmt.Errorf("harness: unknown collector kind %v", cfg.Kind)
		}
		g := core.NewGenerational(stack, meter, profHook, gcfg)
		col = g
		attachThreads = g.AttachThreads
		updates = g.PointerUpdates
	}
	// The thread set is created — and the collector told about it — only
	// for T > 1, so single-thread runs execute the exact pre-thread code
	// paths (byte-identical traces).
	var threads *rt.ThreadSet
	if cfg.Threads > 1 {
		threads = rt.NewThreadSet(stack, meter)
		attachThreads(threads)
		for i := 1; i < cfg.Threads; i++ {
			threads.Spawn()
		}
	}
	if cfg.Sanitize {
		col = sanitize.Wrap(col, sanitize.Options{})
	}

	m := workload.NewMutator(col, stack, table, meter)
	m.Threads = threads
	// Traced runs record request spans: workloads that bracket work with
	// Mutator.Request (the server family) feed the internal/slo latency
	// report. Untraced runs leave Rec nil and Request degrades to a plain
	// call, so the simulated times are identical either way.
	m.Rec = rec
	res := w.Run(m, cfg.Scale)
	if profiler != nil {
		profiler.Finalize()
	}
	var adaptSnap *adapt.Snapshot
	var adaptProfile *adapt.RunProfile
	if engine != nil {
		// Seal after Finalize so the profiler's end-of-run deaths fold
		// into the stored survival state without triggering decisions.
		engine.Seal()
		adaptSnap = engine.Snapshot()
		adaptProfile = engine.StoreProfile(cfg.Label(), cfg.Workload, w.Sites())
	}
	if rec != nil {
		rec.Finish()
		if err := rec.VerifyReconciled(); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", cfg.Label(), err)
		}
	}
	resultProf := profiler
	if !cfg.Profile {
		resultProf = nil // trace-only and adapt-only runs keep the profiler internal
	}
	return &RunResult{
		Config:       cfg,
		Check:        res.Check,
		Times:        meter.Snapshot(),
		Stats:        *col.Stats(),
		Updates:      updates(),
		MaxDepth:     stack.MaxDepth(),
		Profiler:     resultProf,
		Trace:        rec,
		Policy:       polCal.policy,
		Adapt:        adaptSnap,
		AdaptProfile: adaptProfile,
	}, nil
}

// nurseryFor sizes the nursery: the paper's 512KB cache-sized nursery,
// shrunk when the total budget is small ("for benchmarking reasons, the
// nursery is sometimes made significantly smaller").
func nurseryFor(budgetWords uint64) uint64 {
	n := uint64(64 * 1024) // 512KB
	if n > budgetWords/4 {
		n = budgetWords / 4
	}
	if n < 1024 {
		n = 1024
	}
	return n
}
