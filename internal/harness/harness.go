// Package harness runs the paper's experiments: it executes benchmark
// workloads under configured collectors with the paper's k·Min memory
// budgets (Min = twice the maximum live data, measured by a calibration
// run), gathers the measurements the tables report, derives pretenuring
// policies from profiling runs, and renders Tables 2-7 and Figure 2.
// Build assembles every simulated runtime, gcsim's and the fuzz fleet's
// included, from a Spec.
//
// # Concurrency contract
//
// Run is safe to call from multiple goroutines, and RunAll fans a batch
// of runs out across a bounded worker pool. The contract:
//
//   - Per-run state (trace table, meter, stack, profiler, recorder,
//     advisor, collector and its heap, thread set, mutator) is built
//     fresh for each run by Build and never shared, so concurrent runs
//     cannot observe each other.
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
	"cmp"
	"fmt"
	"sync"

	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
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

// Preset is one row of the collector-configuration table: what a
// CollectorKind names. gcsim's collector choices are rows of the same
// table, so every front end maps a configuration name to a core.Config
// through Preset.Config.
type Preset struct {
	// Name labels the configuration in the tables.
	Name string
	// Delta holds the collector fields the row sets: Semispace,
	// CardTable, AgingMinors and ScanElision.
	Delta core.Config
	// Markers reports whether the row takes a stack-marker spacing, and
	// MarkerN is the spacing it places when the run names none.
	Markers bool
	MarkerN int
	// Policy reports whether the row takes the calibrated pretenuring
	// policy.
	Policy bool
}

// presets is the table, indexed by CollectorKind.
var presets = [...]Preset{
	KindSemispace:    {Name: "semispace", Delta: core.Config{Semispace: true}, Markers: true},
	KindGenerational: {Name: "generational"},
	KindGenMarkers:   {Name: "gen+markers", Markers: true, MarkerN: core.PaperMarkerN},
	KindGenMarkersPretenure: {Name: "gen+markers+pretenure",
		Markers: true, MarkerN: core.PaperMarkerN, Policy: true},
	KindGenMarkersPretenureElide: {Name: "gen+markers+pretenure+elide", Delta: core.Config{ScanElision: true},
		Markers: true, MarkerN: core.PaperMarkerN, Policy: true},
	KindGenCards:          {Name: "gen+cards", Delta: core.Config{CardTable: true}},
	KindGenPretenure:      {Name: "gen+pretenure", Policy: true},
	KindGenAging:          {Name: "gen+aging", Delta: core.Config{AgingMinors: 3}},
	KindGenAgingPretenure: {Name: "gen+aging+pretenure", Delta: core.Config{AgingMinors: 3}, Policy: true},
}

// Preset returns k's row of the table, and false for an unknown kind.
func (k CollectorKind) Preset() (Preset, bool) {
	if k < 0 || int(k) >= len(presets) {
		return Preset{}, false
	}
	return presets[k], true
}

// String names the configuration as the tables label it.
func (k CollectorKind) String() string {
	if p, ok := k.Preset(); ok {
		return p.Name
	}
	return fmt.Sprintf("CollectorKind(%d)", int(k))
}

// Config maps the preset to its collector configuration: the row's delta,
// the stack-marker spacing markerN (the row's default when zero), and
// policy when the row takes one. The budget, sizes and the knobs every
// row shares are the front end's to set.
func (p Preset) Config(markerN int, policy *core.PretenurePolicy) core.Config {
	c := p.Delta
	c.MarkerN = markerN
	if markerN == 0 {
		c.MarkerN = p.MarkerN
	}
	if p.Policy {
		c.Pretenure = policy
	}
	return c
}

// RunConfig describes one experiment run.
type RunConfig struct {
	Workload string
	Scale    workload.Scale
	Kind     CollectorKind
	// K is the memory multiple of Min = 2·max-live; 0 means unconstrained.
	K float64
	// MarkerN sets the stack-marker spacing: on the gen+markers kinds it
	// overrides the paper's n = 25, on KindSemispace it enables markers
	// (§7.1). The other kinds place no markers and reject it.
	MarkerN int
	// Profile attaches the heap profiler to this run.
	Profile bool
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
	// emitted as gated heap records in the trace stream. Requires Trace.
	TraceHeap bool
	// Adapt attaches the online pretenuring advisor (internal/adapt, §9)
	// to a generational run: per-site survival statistics accumulate
	// on-line and sites are promoted to (and demoted from) pretenured
	// allocation mid-run. Unlike tracing, the advisor charges its probe,
	// sample, and decision work to the meter's Adapt component. Requires a
	// generational kind; combining Adapt with KindSemispace is an error.
	Adapt bool
	// AdaptNoDemote disables the advisor's mistrain demotion (ablation:
	// the phase-shift experiment runs with and without it). Requires Adapt.
	AdaptNoDemote bool
	// AdaptWarm, when non-nil, seeds the advisor from a prior run's stored
	// profile before the first allocation (§9 warm start). Requires Adapt.
	AdaptWarm *adapt.RunProfile
	// TrainScale, when nonzero, derives the offline pretenuring policy
	// from a calibration at this scale instead of Scale — modelling the
	// paper's train-on-one-input, measure-on-another methodology. It only
	// affects kinds that consult the offline policy; the memory budget
	// still calibrates at Scale.
	TrainScale workload.Scale
	// Threads runs the workload over this many simulated mutator threads
	// (a round-robin scheduler in the workload layer; the server family
	// serves request r on thread r mod Threads). 0 and 1 both name the
	// primary thread alone. Calibration always runs single-threaded: the
	// live-set bound and site profile are schedule-independent.
	Threads int
	// GCWorkers enables the deterministic parallel copying phases with
	// this many simulated workers (see core.Config.GCWorkers): identical
	// heap images at every W, pause wall time shrunk to the critical
	// path. 0 or 1 is the serial collector.
	GCWorkers int
	// DeferMajor runs over-threshold major collections as their own pause
	// at the next GC trigger instead of inside the minor that crossed the
	// threshold (see core.Config.DeferMajor). Same collections, moved
	// pause boundaries; bounds the worst pause a latency window absorbs.
	// Requires a generational kind.
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
	// Policy is the calibrated offline pretenuring policy the run used:
	// nil unless the kind's preset takes one.
	Policy *core.PretenurePolicy
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
// pretenuring policy using the given old% cutoff (0 means the paper's,
// prof.PaperCutoffPct). Results are cached per (workload, canonical
// scale, cutoff) with per-key singleflight.
func Calibrate(name string, scale workload.Scale, cutoffPct float64) (*calibration, error) {
	if cutoffPct == 0 {
		cutoffPct = prof.PaperCutoffPct
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
	runPass := func(budget uint64, profile bool) *Sim {
		// Small nursery: frequent live-set samples for a tight estimate.
		sim := Build(Spec{
			Collector: core.Config{BudgetWords: budget, NurseryWords: 4 * 1024},
			Sites:     w.Sites(),
			Profile:   profile,
		})
		w.Run(sim.Mutator(), scale)
		sim.Col.Collect(true) // final major: exact live floor
		_ = sim.Finish()      // untraced, so there is no recorder to reconcile
		return sim
	}
	rough := runPass(1<<24, true)
	// Pass 2: a tight budget (a few multiples of the rough maximum)
	// forces frequent major collections, sampling the true live-set peak
	// closely. Max live only moves up, so the rough value is the floor.
	tightBudget := 6 * rough.Col.Stats().MaxLiveBytes / mem.WordSize
	if tightBudget < 64*1024 {
		tightBudget = 64 * 1024
	}
	tight := runPass(tightBudget, false)
	maxLive := max(rough.Col.Stats().MaxLiveBytes, tight.Col.Stats().MaxLiveBytes)

	policy := rough.Profiler.Policy(cutoffPct, 32)
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := workload.Get(cfg.Workload)
	if err != nil {
		return nil, err
	}
	// Calibrate only what the run uses: the budget's max live data when K
	// sets one, the offline policy when the kind takes it. The policy
	// normally comes from the same calibration as the budget; TrainScale
	// splits them so experiments can train the policy on a different
	// input than they measure (§6's methodology, and the handicap the
	// online advisor is compared against).
	p, _ := cfg.Kind.Preset()
	var maxLive uint64
	if cfg.K > 0 {
		cal, err := Calibrate(cfg.Workload, cfg.Scale, 0)
		if err != nil {
			return nil, err
		}
		maxLive = cal.maxLiveWords
	}
	var policy *core.PretenurePolicy
	if p.Policy {
		cal, err := Calibrate(cfg.Workload, cmp.Or(cfg.TrainScale, cfg.Scale), 0)
		if err != nil {
			return nil, err
		}
		policy = cal.policy
	}

	sim := Build(cfg.spec(w.Sites(), maxLive, policy))
	if cfg.TraceHeap {
		sim.Rec.EnableHeapSampling()
	}
	if sim.Advisor != nil {
		sim.Advisor.WarmStart(cfg.AdaptWarm)
	}
	g, _ := sim.Col.(*core.Generational) // for PointerUpdates past the sanitizer
	if cfg.Sanitize {
		sim.Col = sanitize.Wrap(sim.Col, nil)
	}

	res := w.Run(sim.Mutator(), cfg.Scale)
	if err := sim.Finish(); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", cfg.Label(), err)
	}
	r := &RunResult{
		Config:   cfg,
		Check:    res.Check,
		Times:    sim.Meter.Snapshot(),
		Stats:    *sim.Col.Stats(),
		MaxDepth: sim.Stack.MaxDepth(),
		Trace:    sim.Rec,
		Policy:   policy,
	}
	if g != nil {
		r.Updates = g.PointerUpdates()
	}
	if cfg.Profile {
		r.Profiler = sim.Profiler // trace-only and adapt-only runs keep the profiler internal
	}
	if sim.Advisor != nil {
		r.Adapt = sim.Advisor.Snapshot()
		r.AdaptProfile = sim.Advisor.StoreProfile(cfg.Label(), cfg.Workload, w.Sites())
	}
	return r, nil
}

// validate rejects a run the harness would misread: an unknown kind, a
// negative K, a MarkerN on a kind that places no markers, and an
// instrument option without the option it refines. Every other rule
// belongs to the Spec the run builds (Spec.Validate), so it is checked
// there, before any calibration is paid for; an empty policy stands in
// for the calibrated one. Each error names the run and the field.
func (c RunConfig) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("harness: %s: "+format, append([]any{c.Label()}, args...)...)
	}
	p, ok := c.Kind.Preset()
	switch {
	case !ok:
		return fmt.Errorf("harness: unknown collector kind %v", c.Kind)
	case c.K < 0:
		return bad("K %g is negative", c.K)
	case c.MarkerN != 0 && !p.Markers:
		return bad("MarkerN is set but %v places no stack markers", c.Kind)
	case c.TraceHeap && !c.Trace:
		return bad("TraceHeap is set but Trace is off, so no heap sample would be recorded")
	case c.AdaptNoDemote && !c.Adapt:
		return bad("AdaptNoDemote is set but Adapt is off")
	case c.AdaptWarm != nil && !c.Adapt:
		return bad("AdaptWarm is set but Adapt is off")
	}
	if err := c.spec(nil, 0, core.NewPretenurePolicy(nil)).Validate(); err != nil {
		return bad("%w", err)
	}
	return nil
}

// spec translates a run into the runtime Build assembles: the paper's
// budget of k·Min (Min = 2·max live), the collector kind's preset, and
// the instruments the run asks for.
func (c RunConfig) spec(sites map[obj.SiteID]string, maxLiveWords uint64, policy *core.PretenurePolicy) Spec {
	budget := uint64(1) << 24 // unconstrained default
	if c.K > 0 {
		budget = uint64(c.K * 2 * float64(maxLiveWords))
	}
	s := Spec{Sites: sites, Profile: c.Profile, Trace: c.Trace, Threads: c.Threads}
	if c.Adapt {
		s.Adapt = &adapt.Params{DisableDemotion: c.AdaptNoDemote}
	}
	p, _ := c.Kind.Preset()
	g := p.Config(c.MarkerN, policy)
	g.BudgetWords = budget
	g.GCWorkers = c.GCWorkers
	g.DeferMajor = c.DeferMajor
	g.OldCollector = c.OldCollector
	// The nursery is the one size the two collectors do not share.
	if !g.Semispace {
		g.NurseryWords = nurseryFor(budget)
		if c.Profile && c.K == 0 {
			// Unconstrained profiling runs (Figure 2) use a small nursery
			// so object lifetimes are sampled frequently.
			g.NurseryWords = 4 * 1024
		}
	}
	s.Collector = g
	return s
}

// nurseryFor sizes the nursery: the paper's 512KB cache-sized nursery,
// shrunk when the total budget is small ("for benchmarking reasons, the
// nursery is sometimes made significantly smaller").
func nurseryFor(budgetWords uint64) uint64 {
	return max(min(64*1024, budgetWords/4), 1024) // 512KB at most
}
