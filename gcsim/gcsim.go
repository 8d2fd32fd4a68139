// Package gcsim is the public API of tilgc: a simulated-runtime
// reproduction of "Generational Stack Collection and Profile-Driven
// Pretenuring" (Cheng, Harper, Lee — PLDI 1998).
//
// The package exposes three layers:
//
//   - Runtime construction: NewRuntime builds a simulated mutator runtime
//     (arena heap, activation-record stack with trace tables, register
//     file, write barrier) paired with one of the paper's collectors,
//     configured through Config. User programs drive it through the
//     slot-oriented Mutator API.
//
//   - Benchmarks: the paper's eleven SML benchmark programs, runnable by
//     name under any collector configuration with deterministic
//     self-checks.
//
//   - Experiments: the harness regenerating every table and figure of the
//     paper's evaluation (Tables 2-7, Figure 2) plus the §7.2 and §4
//     extensions.
//
// A minimal program:
//
//	rt := gcsim.NewRuntime(gcsim.Config{Collector: gcsim.Generational})
//	m := rt.Mutator()
//	frame := m.PtrFrame("main", 2)
//	m.Call(frame, func() {
//	    m.ConsInt(1, 42, 1, 1) // cons 42 onto the nil list in slot 1
//	})
//
// Simulated exceptions do not unwind the Go stack. Mutator.Raise unwinds
// the simulated stack to the most recent handler and returns. Its caller
// returns at once, and code that calls anything that can raise checks
// Mutator.Raising after the call and returns while it is set, until the
// Mutator.TryCatch that installed the handler runs it:
//
//	m.TryCatch(func() {
//	    m.Call(frame, func() { m.Raise() })
//	    if m.Raising() {
//	        return
//	    }
//	    // reached only when the call did not raise
//	}, func() {
//	    // the handler: the simulated stack is back at this frame
//	})
//
// Call, CallArgs, TryCatch, Raise, TakeRet and TakeRetInt panic when
// entered while an exception is in flight, so a missed check fails
// loudly instead of acting on the handler's frame.
package gcsim

import (
	"fmt"
	"io"

	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/harness"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
	"tilgc/internal/rt"
	"tilgc/internal/workload"
)

// CollectorChoice selects a collector configuration.
type CollectorChoice int

const (
	// Generational (the zero value, and the default) is the
	// two-generation collector with immediate promotion and a
	// sequential-store-buffer write barrier (§2.1).
	Generational CollectorChoice = iota
	// Semispace is the Cheney-scan semispace baseline (§2.1).
	Semispace
	// GenerationalMarkers adds generational stack collection (§5).
	GenerationalMarkers
	// GenerationalFull adds profile-driven pretenuring on top (§6); a
	// pretenuring policy must be supplied (see Profile / PolicyFromProfile).
	GenerationalFull
)

// Config configures a Runtime.
type Config struct {
	// Collector picks the collector; default Generational.
	Collector CollectorChoice
	// BudgetWords caps total collector memory in 8-byte words
	// (0 = 512Mi words, effectively unconstrained).
	BudgetWords uint64
	// NurseryWords sizes the young generation (default 65536 = 512KB).
	NurseryWords uint64
	// MarkerN is the stack-marker spacing n (default 25).
	MarkerN int
	// Pretenure supplies the per-site pretenuring decisions for
	// GenerationalFull.
	Pretenure *PretenurePolicy
	// ScanElision enables the §7.2 pretenured-region scan elision.
	ScanElision bool
	// CardTable replaces the SSB with card marking (§4 alternative).
	CardTable bool
	// AgingMinors disables immediate promotion: nursery survivors age
	// through an intermediate space for this many further minor
	// collections before tenuring (§7.2 discussion). Zero = the paper's
	// immediate promotion.
	AgingMinors int
	// Profile attaches a heap profiler (Figure 2 data; slows the run).
	Profile bool
	// SiteNames documents allocation sites in profile reports.
	SiteNames map[SiteID]string
	// Threads runs the mutator over this many simulated threads: thread 0
	// wraps the primary stack and the rest spawn with empty stacks. The
	// scheduler is cooperative — programs switch with
	// Mutator.SetThread — and 0 and 1 both name the primary thread alone.
	Threads int
	// GCWorkers enables the deterministic parallel copying phases with
	// this many simulated workers: heap images stay byte-identical at
	// every worker count while pause wall time shrinks to the critical
	// path (max-of-workers). 0 or 1 is the serial collector.
	GCWorkers int
	// DeferMajor bounds individual pauses in the generational collectors:
	// an over-threshold major collection runs as its own pause at the next
	// GC trigger instead of piggybacking on the minor that crossed the
	// threshold. Same collections, same work — only the pause boundaries
	// move. Combining it with the Semispace collector, where every
	// collection is full, is a validation error.
	DeferMajor bool
	// OldCollector selects the tenured-generation algorithm for the
	// generational collectors: OldCopy (the zero value — the paper's
	// copying old generation), OldMarkSweep (non-moving, mark bitmap +
	// size-segregated free lists), or OldMarkCompact (mark bitmap + a
	// sliding compaction preserving allocation order). Client-visible
	// results are byte-identical across all three; only GC cost, pause
	// shape, and heap footprint differ. Combining it with the Semispace
	// collector is a validation error: that baseline has no old
	// generation.
	OldCollector OldGenCollector
}

// OldGenCollector selects the tenured-generation algorithm (see
// Config.OldCollector).
type OldGenCollector = core.OldCollector

// Old-generation collector choices.
const (
	// OldCopy is the paper's copying old generation (the default).
	OldCopy = core.OldCopy
	// OldMarkSweep is the non-moving bitmap mark-sweep old generation.
	OldMarkSweep = core.OldMarkSweep
	// OldMarkCompact is the sliding bitmap mark-compact old generation.
	OldMarkCompact = core.OldMarkCompact
)

// ParseOldCollector resolves an old-generation collector name ("copy",
// "marksweep", "markcompact"; "" means copy) to its value, reporting
// whether the name was recognized.
func ParseOldCollector(s string) (OldGenCollector, bool) {
	return core.ParseOldCollector(s)
}

// Re-exported building blocks.
type (
	// Mutator is the slot-oriented mutator API programs are written in.
	Mutator = workload.Mutator
	// PretenurePolicy maps allocation sites to pretenure decisions.
	PretenurePolicy = core.PretenurePolicy
	// PretenureDecision configures one pretenured site.
	PretenureDecision = core.PretenureDecision
	// SiteID identifies an allocation site.
	SiteID = obj.SiteID
	// Profiler is the heap profiler (per-site lifetime statistics).
	Profiler = prof.Profiler
	// ReportOptions controls Figure 2-style profile report rendering.
	ReportOptions = prof.ReportOptions
	// GCStats is the collector statistics block.
	GCStats = core.GCStats
	// Scale scales benchmark workloads relative to the paper's runs.
	Scale = workload.Scale
	// FrameInfo is a registered activation-record layout. It is
	// read-only once registered: registration compiles the layout for
	// the collector's stack scan, and a later write to its fields would
	// not reach the compiled form.
	FrameInfo = rt.FrameInfo
	// SlotTrace describes a stack slot or register to the collector.
	SlotTrace = rt.SlotTrace
)

// Trace constructors, re-exported for building frame layouts.
var (
	// NP marks a slot as a non-pointer.
	NP = rt.NP
	// PTR marks a slot as a statically-known pointer.
	PTR = rt.PTR
	// SAVE marks a slot as the spill of a caller's callee-save register.
	SAVE = rt.SAVE
	// COMPSLOT marks a slot whose pointer-ness is computed from a runtime
	// type in another slot.
	COMPSLOT = rt.COMPSLOT
	// COMPREG marks a slot whose pointer-ness is computed from a runtime
	// type in a register (top frame only).
	COMPREG = rt.COMPREG
)

// DefaultReportOptions mirrors the paper's Figure 2 report settings.
func DefaultReportOptions(title string) ReportOptions {
	return prof.DefaultReportOptions(title)
}

// NewPretenurePolicy builds a policy from explicit decisions.
func NewPretenurePolicy(sites map[SiteID]PretenureDecision) *PretenurePolicy {
	return core.NewPretenurePolicy(sites)
}

// Runtime is a simulated runtime plus collector, assembled by
// harness.Build like every experiment run and fuzz execution, so a Config
// and the equivalent harness run build the same runtime.
type Runtime struct {
	sim     *harness.Sim
	mutator *workload.Mutator
}

// NewRuntime builds a runtime per cfg. The configuration must be valid
// (see Config.Validate): option combinations the selected collector would
// ignore panic here instead of silently running a different experiment.
func NewRuntime(cfg Config) *Runtime {
	mustValidate(cfg)
	sim := harness.Build(cfg.spec())
	return &Runtime{sim: sim, mutator: sim.Mutator()}
}

// choices names each collector choice and the row of harness's
// collector-configuration table it selects.
var choices = [...]struct {
	name string
	kind harness.CollectorKind
}{
	Generational:        {"Generational", harness.KindGenerational},
	Semispace:           {"Semispace", harness.KindSemispace},
	GenerationalMarkers: {"GenerationalMarkers", harness.KindGenMarkers},
	GenerationalFull:    {"GenerationalFull", harness.KindGenMarkersPretenure},
}

// preset returns the preset cfg's collector choice selects; with
// ScanElision, GenerationalFull selects the elide row.
func (c Config) preset() harness.Preset {
	kind := choices[c.Collector].kind
	if kind == harness.KindGenMarkersPretenure && c.ScanElision {
		kind = harness.KindGenMarkersPretenureElide
	}
	p, _ := kind.Preset()
	return p
}

// spec translates cfg into the runtime harness.Build assembles: the
// preset's collector configuration, with every other field passed through
// whatever the collector choice; Validate rejects the ones the choice
// would ignore.
func (c Config) spec() harness.Spec {
	g := c.preset().Config(c.MarkerN, c.Pretenure)
	g.BudgetWords = c.BudgetWords
	if g.BudgetWords == 0 {
		g.BudgetWords = 512 << 20
	}
	g.NurseryWords = c.NurseryWords
	g.AgingMinors = c.AgingMinors
	g.ScanElision = c.ScanElision
	g.CardTable = c.CardTable
	g.DeferMajor = c.DeferMajor
	g.OldCollector = c.OldCollector
	g.GCWorkers = c.GCWorkers
	return harness.Spec{Collector: g, Sites: c.SiteNames, Profile: c.Profile, Threads: c.Threads}
}

// Mutator returns the mutator API for writing programs against this
// runtime.
func (r *Runtime) Mutator() *Mutator { return r.mutator }

// Collect forces a collection (major on generational collectors when
// major is true).
func (r *Runtime) Collect(major bool) { r.sim.Col.Collect(major) }

// Stats returns collector statistics.
func (r *Runtime) Stats() *GCStats { return r.sim.Col.Stats() }

// CollectorName returns the active collector configuration's name.
func (r *Runtime) CollectorName() string { return r.sim.Col.Name() }

// ClientSeconds returns mutator time in simulated seconds.
func (r *Runtime) ClientSeconds() float64 {
	return r.sim.Meter.Get(costmodel.Client).Seconds()
}

// GCSeconds returns collector time in simulated seconds.
func (r *Runtime) GCSeconds() float64 { return r.sim.Meter.GC().Seconds() }

// GCStackSeconds returns the stack-root-processing share of GC time.
func (r *Runtime) GCStackSeconds() float64 {
	return r.sim.Meter.Get(costmodel.GCStack).Seconds()
}

// GCCopySeconds returns the heap scan/copy share of GC time.
func (r *Runtime) GCCopySeconds() float64 {
	return r.sim.Meter.Get(costmodel.GCCopy).Seconds()
}

// Profiler returns the heap profiler, or nil when profiling is off.
// Call Finalize on it after the program completes.
func (r *Runtime) Profiler() *Profiler { return r.sim.Profiler }

// PolicyFromProfile derives the paper's pretenuring policy from a
// finalized profile: every site whose old% is at least cutoffPct (the
// paper uses PaperCutoffPct) with at least minObjects allocations is
// pretenured.
func PolicyFromProfile(p *Profiler, cutoffPct float64, minObjects uint64) *PretenurePolicy {
	return p.Policy(cutoffPct, minObjects)
}

// ---- Benchmarks -------------------------------------------------------------

// Benchmarks returns the names of the paper's benchmark programs in table
// order.
func Benchmarks() []string {
	out := make([]string, len(harness.PaperOrder))
	copy(out, harness.PaperOrder)
	return out
}

// BenchmarkInfo describes a benchmark program.
type BenchmarkInfo struct {
	Name        string
	Description string
	Sites       map[SiteID]string
}

// Describe returns a benchmark's metadata.
func Describe(name string) (BenchmarkInfo, error) {
	w, err := workload.Get(name)
	if err != nil {
		return BenchmarkInfo{}, err
	}
	return BenchmarkInfo{Name: w.Name(), Description: w.Description(), Sites: w.Sites()}, nil
}

// RunBenchmark executes a named benchmark on r and returns its
// deterministic self-check value.
func (r *Runtime) RunBenchmark(name string, scale Scale) (uint64, error) {
	w, err := workload.Get(name)
	if err != nil {
		return 0, err
	}
	res := w.Run(r.mutator, scale)
	if r.sim.Profiler != nil {
		// One final collection so objects allocated near the end get a
		// survival observation before end-of-run accounting.
		r.sim.Col.Collect(false)
		if err := r.sim.Finish(); err != nil {
			return 0, err
		}
	}
	return res.Check, nil
}

// ---- Experiments ------------------------------------------------------------

// RunOptions configures experiment execution: worker-pool parallelism
// and the per-run progress hook. The zero value runs with one worker per
// CPU and no progress events. Whatever the parallelism, experiment
// output is byte-identical to the serial path (see harness.RunAll).
type RunOptions = harness.Options

// RunEvent is one per-run progress notification (see RunOptions.Events).
type RunEvent = harness.Event

// RunEvent kinds.
const (
	EventRunStarted  = harness.EventRunStarted
	EventRunFinished = harness.EventRunFinished
)

// experiments is every Experiment in the order Experiments lists them
// (and `gcbench -experiment all` runs them), each with its renderer.
var experiments = []struct {
	name   string
	render func(io.Writer, Scale, RunOptions) error
}{
	{"table1", func(w io.Writer, _ Scale, _ RunOptions) error { return harness.Table1(w) }},
	{"table2", harness.Table2},
	{"table3", harness.Table3},
	{"table4", harness.Table4},
	{"table5", harness.Table5},
	{"table6", harness.Table6},
	{"table7", harness.Table7},
	{"figure2", func(w io.Writer, scale Scale, opts RunOptions) error {
		_, err := harness.Figure2(w, scale, opts)
		return err
	}},
	{"elide", harness.ExtensionElide},
	{"barrier", harness.ExtensionBarrier},
	{"aging", harness.ExtensionAging},
	{"markersweep", func(w io.Writer, scale Scale, opts RunOptions) error {
		return harness.MarkerSweep(w, scale, []string{"Knuth-Bendix", "Color"}, []int{5, 10, 25, 50, 100}, opts)
	}},
	{"adapt", harness.ExperimentAdapt},
	{"slo", harness.ExperimentSLO},
	{"oldgen", harness.ExperimentOldgen},
}

// Experiment regenerates one of the paper's tables or figures, writing
// the rendered result to w. Experiments lists the valid names.
func Experiment(w io.Writer, name string, scale Scale) error {
	return ExperimentOpts(w, name, scale, RunOptions{})
}

// ExperimentOpts is Experiment with explicit execution options.
func ExperimentOpts(w io.Writer, name string, scale Scale, opts RunOptions) error {
	for _, e := range experiments {
		if e.name == name {
			return e.render(w, scale, opts)
		}
	}
	return fmt.Errorf("gcsim: unknown experiment %q", name)
}

// Experiments lists the valid Experiment names, in paper order: the
// tables, Figure 2, then the extensions.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// ---- Adaptive pretenuring ---------------------------------------------------

// Re-exported adaptive-pretenuring store types (§9). An AdaptStore is the
// schema-versioned cross-run profile store; each AdaptProfile inside it
// seeds one workload's advisor on a warm start (RunOptions.AdaptWarm).
type (
	// AdaptStore is a collection of stored advisor profiles.
	AdaptStore = adapt.Store
	// AdaptProfile is one run's stored advisor state.
	AdaptProfile = adapt.RunProfile
)

// ReadAdaptStore decodes a profile store from its JSONL serialization,
// rejecting unknown schema versions with a descriptive error.
func ReadAdaptStore(r io.Reader) (*AdaptStore, error) { return adapt.ReadJSONL(r) }

// PaperCutoffPct is the paper's old% pretenuring cutoff (§6): a site at
// or above it is pretenured.
const PaperCutoffPct = prof.PaperCutoffPct

// Figure2Store regenerates Figure 2 as Experiment "figure2" does, writing
// the report to w, and returns an advisor store made from the same runs:
// one warm-startable profile per profiled benchmark, labelled with its
// run, holding every site's survival evidence, with the sites whose old%
// meets PaperCutoffPct over at least 32 allocations seeded as pretenured
// (the paper's §6 rule).
func Figure2Store(w io.Writer, scale Scale, opts RunOptions) (*AdaptStore, error) {
	rs, err := harness.Figure2(w, scale, opts)
	if err != nil {
		return nil, err
	}
	store := &AdaptStore{}
	for _, r := range rs {
		store.Profiles = append(store.Profiles,
			adapt.FromProfile(r.Profiler, r.Config.Label(), r.Config.Workload, PaperCutoffPct, 32))
	}
	return store, nil
}

// DefaultScale is the scale used by the command-line tools: large enough
// to reproduce every effect, small enough to run a full table in minutes.
var DefaultScale = workload.DefaultScale
