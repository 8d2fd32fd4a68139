package harness

import (
	"errors"
	"fmt"
	"strings"

	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
	"tilgc/internal/rt"
	"tilgc/internal/trace"
	"tilgc/internal/workload"
)

// Spec describes one simulated runtime: its collector and the instruments
// attached to it. Every front end (gcsim, Run, calibration, the fuzz
// fleet) translates its configuration into a Spec for Build, which
// rejects any Spec that fails Validate. The front ends check only their
// own presets; which knob each collector honours is core.Config.Validate's
// to say.
type Spec struct {
	// Collector configures the collector; Collector.Semispace selects
	// which one. Build sets the Trace and Advisor fields.
	Collector core.Config
	// Sites names the allocation sites in the profiler's output, the
	// trace's site records included.
	Sites map[obj.SiteID]string
	// Profile attaches the heap profiler. Trace and Adapt attach it too,
	// since its per-site table is the trace's site records and its
	// lifetime records feed the advisor. It charges nothing to the meter.
	Profile bool
	// Trace attaches a telemetry recorder (see RunConfig.Trace).
	Trace bool
	// Adapt, when non-nil, attaches the online pretenuring advisor with
	// these parameters. It requires the generational collector.
	Adapt *adapt.Params
	// Threads is the number of simulated mutator threads. Build spawns
	// threads 1..Threads-1 in the collector's thread set before the first
	// allocation; 0 and 1 both leave the primary thread alone.
	Threads int
}

// Sim is one assembled runtime. A caller may replace Col with a decorator
// of it (the sanitizer, fault injection) before the first allocation;
// Mutator and Finish work on whatever Col then holds.
type Sim struct {
	Table    *rt.TraceTable
	Meter    *costmodel.Meter
	Stack    *rt.Stack
	Profiler *prof.Profiler  // nil unless Spec.Profile, Trace or Adapt
	Rec      *trace.Recorder // nil unless Spec.Trace
	Advisor  *adapt.Engine   // nil unless Spec.Adapt
	Col      core.Collector
}

// Validate reports every problem with s, joined: the collector
// configuration's (core.Config.Validate) and the instruments'.
func (s Spec) Validate() error {
	errs := []error{s.Collector.Validate()}
	if s.Adapt != nil && s.Collector.Semispace {
		errs = append(errs, errors.New("Adapt is set but the adaptive advisor requires a generational collector"))
	}
	if s.Threads < 0 {
		errs = append(errs, fmt.Errorf("Threads %d is negative", s.Threads))
	}
	return errors.Join(errs...)
}

// Build assembles the runtime s describes. It panics, naming every
// problem, on a Spec that fails Validate.
func Build(s Spec) *Sim {
	if err := s.Validate(); err != nil {
		panic("harness: invalid Spec:\n  " + strings.ReplaceAll(err.Error(), "\n", "\n  "))
	}
	sim := &Sim{Table: rt.NewTraceTable(), Meter: costmodel.NewMeter()}
	sim.Stack = rt.NewStack(sim.Table, sim.Meter)
	var hook core.Profiler
	if s.Profile || s.Trace || s.Adapt != nil {
		sim.Profiler = prof.New(s.Sites)
		hook = sim.Profiler
	}
	if s.Trace {
		sim.Rec = trace.NewRecorder(sim.Meter)
	}
	if s.Adapt != nil {
		sim.Advisor = adapt.New(sim.Meter, sim.Rec, *s.Adapt)
		sim.Profiler.SetObserver(sim.Advisor)
	}

	cfg := s.Collector
	cfg.Trace = sim.Rec
	if sim.Advisor != nil {
		cfg.Advisor = sim.Advisor
	}
	if cfg.Semispace {
		sim.Col = core.NewSemispace(sim.Stack, sim.Meter, hook, cfg)
	} else {
		sim.Col = core.NewGenerational(sim.Stack, sim.Meter, hook, cfg)
	}
	for i := 1; i < s.Threads; i++ {
		sim.Col.Threads().Spawn()
	}
	return sim
}

// Mutator returns a workload mutator over the runtime. Traced runs record
// request spans through it (the server family's SLO input); untraced
// ones leave Rec nil, and Request degrades to a plain call.
func (s *Sim) Mutator() *workload.Mutator {
	m := workload.NewMutator(s.Col, s.Stack, s.Table, s.Meter)
	m.Rec = s.Rec
	return m
}

// Finish closes the run: the profiler's end-of-run deaths, then the
// advisor's seal (so those deaths fold into its stored state without
// triggering decisions), then the recorder's seal with the profiler's
// site records and every thread's stub returns, and the check that its
// phases tile the meter exactly.
func (s *Sim) Finish() error {
	if s.Profiler != nil {
		s.Profiler.Finalize()
	}
	if s.Advisor != nil {
		s.Advisor.Seal()
	}
	if s.Rec == nil {
		return nil
	}
	var stubReturns uint64
	for _, t := range s.Col.Threads().Threads() {
		stubReturns += t.Stack().StubReturns()
	}
	s.Rec.Finish(s.Profiler.TraceSites(), stubReturns)
	return s.Rec.VerifyReconciled()
}
