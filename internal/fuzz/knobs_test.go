package fuzz

import (
	"reflect"
	"strings"
	"testing"

	"tilgc/gcsim"
	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/harness"
	"tilgc/internal/obj"
	"tilgc/internal/trace"
	"tilgc/internal/workload"
)

// knobCases maps each field of a front end's config type to a check that
// a non-default value reaches the collector that front end builds.
type knobCases[C any] map[string]func(t *testing.T, cfg C)

// checkKnobs runs every field of C through its case, each starting from
// base. A field with neither a case nor an exemption fails the test, so a
// new knob cannot be added to a front end without proving it arrives.
func checkKnobs[C any](t *testing.T, base C, cases knobCases[C], exempt map[string]string) {
	t.Helper()
	typ := reflect.TypeOf(*new(C))
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if _, ok := exempt[name]; ok {
			continue
		}
		check, ok := cases[name]
		if !ok {
			t.Errorf("%s.%s has no knob case: add one, or an exemption with its reason", typ, name)
			continue
		}
		t.Run(name, func(t *testing.T) { check(t, base) })
	}
	for name := range cases {
		if !fields[name] {
			t.Errorf("knob case for %s.%s, which has no such field", typ, name)
		}
	}
	for name := range exempt {
		if !fields[name] {
			t.Errorf("exemption for %s.%s, which has no such field", typ, name)
		}
	}
}

// TestEveryKnobReachesTheCollector: every field of gcsim.Config,
// harness.RunConfig and fuzz.Config, set to a non-default value, changes
// the collector its front end builds — seen through the collector's Name
// or Inspect where they show the field, otherwise through its effect on a
// short run. Every batch override of harness.Options (gcsim's RunOptions)
// likewise reaches the runs RunAll makes, or skips the semispace ones
// where its documentation says so. It lives in package fuzz because a
// fuzz.Config reaches its collector only through the unexported wrap
// hook; the other front ends are driven through their public APIs.
func TestEveryKnobReachesTheCollector(t *testing.T) {
	t.Run("gcsim.Config", testGcsimKnobs)
	t.Run("harness.RunConfig", testHarnessKnobs)
	t.Run("harness.Options", testOptionsKnobs)
	t.Run("fuzz.Config", testFuzzKnobs)
}

var knobScale = workload.Scale{Repeat: 0.002, Depth: 0.3}

// generational returns the generational collector behind a gcsim runtime.
func generational(t *testing.T, r *gcsim.Runtime) *core.Generational {
	t.Helper()
	g, ok := r.Mutator().Col.(*core.Generational)
	if !ok {
		t.Fatalf("collector %s is not generational", r.CollectorName())
	}
	return g
}

// runColor runs Color at knobScale on a fresh runtime and returns it.
func runColor(t *testing.T, cfg gcsim.Config) *gcsim.Runtime {
	t.Helper()
	r := gcsim.NewRuntime(cfg)
	if _, err := r.RunBenchmark("Color", knobScale); err != nil {
		t.Fatal(err)
	}
	return r
}

func testGcsimKnobs(t *testing.T) {
	policy := gcsim.NewPretenurePolicy(map[gcsim.SiteID]gcsim.PretenureDecision{1: {}})
	// A budget and nursery small enough that Color's tenured data forces
	// major collections.
	const tight, small = 4096, 1024
	checkKnobs(t, gcsim.Config{}, knobCases[gcsim.Config]{
		"Collector": func(t *testing.T, c gcsim.Config) {
			c.Collector = gcsim.Semispace
			if n := gcsim.NewRuntime(c).CollectorName(); n != "semispace" {
				t.Fatalf("collector %q, want semispace", n)
			}
		},
		"BudgetWords": func(t *testing.T, c gcsim.Config) {
			c.BudgetWords, c.NurseryWords = tight, small
			if s := runColor(t, c).Stats(); s.NumMajor == 0 {
				t.Fatal("a tight budget forced no major collection")
			}
		},
		"NurseryWords": func(t *testing.T, c gcsim.Config) {
			c.NurseryWords = 3000
			in := generational(t, gcsim.NewRuntime(c)).Inspect()
			if got := in.Heap.Space(in.YoungSpaces[0]).Capacity(); got < 3000 || got > 4096 {
				t.Fatalf("nursery capacity %d, want the 3000 words asked for", got)
			}
		},
		"MarkerN": func(t *testing.T, c gcsim.Config) {
			c.Collector, c.MarkerN = gcsim.GenerationalMarkers, 7
			if got := generational(t, gcsim.NewRuntime(c)).Inspect().MarkerN; got != 7 {
				t.Fatalf("MarkerN %d, want 7", got)
			}
		},
		"Pretenure": func(t *testing.T, c gcsim.Config) {
			c.Collector, c.Pretenure = gcsim.GenerationalFull, policy
			if got := generational(t, gcsim.NewRuntime(c)).Inspect().Policy; got != policy {
				t.Fatal("the collector does not hold the configured policy")
			}
		},
		"ScanElision": func(t *testing.T, c gcsim.Config) {
			c.Collector, c.Pretenure, c.ScanElision = gcsim.GenerationalFull, policy, true
			if !generational(t, gcsim.NewRuntime(c)).Inspect().ScanElision {
				t.Fatal("scan elision is off")
			}
		},
		"CardTable": func(t *testing.T, c gcsim.Config) {
			c.CardTable = true
			if generational(t, gcsim.NewRuntime(c)).Inspect().Cards == nil {
				t.Fatal("no card table")
			}
		},
		"AgingMinors": func(t *testing.T, c gcsim.Config) {
			c.AgingMinors = 2
			if n := gcsim.NewRuntime(c).CollectorName(); !strings.Contains(n, "+aging2") {
				t.Fatalf("collector %q, want +aging2", n)
			}
		},
		"Profile": func(t *testing.T, c gcsim.Config) {
			c.Profile = true
			if gcsim.NewRuntime(c).Profiler() == nil {
				t.Fatal("no profiler")
			}
		},
		"SiteNames": func(t *testing.T, c gcsim.Config) {
			info, err := gcsim.Describe("Color")
			if err != nil {
				t.Fatal(err)
			}
			c.Profile, c.SiteNames = true, info.Sites
			for _, s := range runColor(t, c).Profiler().Sites() {
				if s.Name != info.Sites[s.Site] {
					t.Fatalf("site %d named %q, want %q", s.Site, s.Name, info.Sites[s.Site])
				}
			}
		},
		"Threads": func(t *testing.T, c gcsim.Config) {
			c.Threads = 3
			r := gcsim.NewRuntime(c)
			if ts := generational(t, r).Inspect().Threads; ts == nil || ts.Len() != 3 {
				t.Fatal("the collector has no three-thread set")
			}
		},
		"GCWorkers": func(t *testing.T, c gcsim.Config) {
			c.GCWorkers = 4
			if n := gcsim.NewRuntime(c).CollectorName(); !strings.Contains(n, "+gcw4") {
				t.Fatalf("collector %q, want +gcw4", n)
			}
		},
		"DeferMajor": func(t *testing.T, c gcsim.Config) {
			c.BudgetWords, c.NurseryWords = tight, small
			inPause := runColor(t, c).Stats()
			c.DeferMajor = true
			deferred := runColor(t, c).Stats()
			if deferred.NumMajor == 0 || deferred.MaxPauseCycles >= inPause.MaxPauseCycles {
				t.Fatalf("deferred majors' worst pause %d, in-pause majors' %d; want it shorter",
					deferred.MaxPauseCycles, inPause.MaxPauseCycles)
			}
		},
		"OldCollector": func(t *testing.T, c gcsim.Config) {
			c.OldCollector = gcsim.OldMarkSweep
			if got := generational(t, gcsim.NewRuntime(c)).Inspect().OldCollector; got != core.OldMarkSweep {
				t.Fatalf("old collector %v, want marksweep", got)
			}
		},
	}, nil)
}

func harnessRun(t *testing.T, cfg harness.RunConfig) *harness.RunResult {
	t.Helper()
	r, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testHarnessKnobs(t *testing.T) {
	base := harness.RunConfig{Workload: "Color", Scale: knobScale, Kind: harness.KindGenerational}
	checkKnobs(t, base, knobCases[harness.RunConfig]{
		"Kind": func(t *testing.T, c harness.RunConfig) {
			c.Kind = harness.KindGenMarkers
			if r := harnessRun(t, c); r.Stats.MarkersPlaced == 0 {
				t.Fatal("gen+markers placed no markers")
			}
		},
		"K": func(t *testing.T, c harness.RunConfig) {
			c.K = 2
			if r := harnessRun(t, c); r.Stats.NumMajor == 0 {
				t.Fatal("k=2 forced no major collection")
			}
		},
		"MarkerN": func(t *testing.T, c harness.RunConfig) {
			c.Kind, c.K, c.MarkerN = harness.KindSemispace, 3, 5
			if r := harnessRun(t, c); r.Stats.FramesReused == 0 {
				t.Fatal("semispace with MarkerN 5 reused no frames")
			}
		},
		"Profile": func(t *testing.T, c harness.RunConfig) {
			c.Profile = true
			if harnessRun(t, c).Profiler == nil {
				t.Fatal("no profiler")
			}
		},
		"PretenureCutoff": func(t *testing.T, c harness.RunConfig) {
			c.Kind = harness.KindGenPretenure
			paper := harnessRun(t, c)
			c.PretenureCutoff = 1
			loose := harnessRun(t, c)
			if loose.Stats.Pretenured <= paper.Stats.Pretenured {
				t.Fatalf("cutoff 1%% pretenured %d objects, cutoff 80%% %d; want more",
					loose.Stats.Pretenured, paper.Stats.Pretenured)
			}
		},
		"Trace": func(t *testing.T, c harness.RunConfig) {
			c.Trace = true
			if r := harnessRun(t, c); r.Trace == nil || len(r.Trace.Events()) == 0 {
				t.Fatal("no trace events")
			}
		},
		"TraceHeap": func(t *testing.T, c harness.RunConfig) {
			c.Trace, c.TraceHeap = true, true
			if r := harnessRun(t, c); len(r.Trace.Data("").Heap) == 0 {
				t.Fatal("no heap samples")
			}
		},
		"Adapt": func(t *testing.T, c harness.RunConfig) {
			c.Adapt = true
			if r := harnessRun(t, c); r.Adapt == nil || r.Adapt.Samples == 0 {
				t.Fatal("the advisor saw no samples")
			}
		},
		"AdaptNoDemote": func(t *testing.T, c harness.RunConfig) {
			// The phase-shift workload mistrains its node site, which the
			// advisor demotes unless told not to.
			c.Workload, c.Scale, c.K, c.Adapt = "PhaseShift", workload.Scale{Repeat: 0.1}, 1.5, true
			if r := harnessRun(t, c); r.Adapt.Demotions == 0 {
				t.Fatal("the reference run never demoted")
			}
			c.AdaptNoDemote = true
			if r := harnessRun(t, c); r.Adapt.Demotions != 0 {
				t.Fatalf("AdaptNoDemote run demoted %d times", r.Adapt.Demotions)
			}
		},
		"AdaptWarm": func(t *testing.T, c harness.RunConfig) {
			c.Adapt = true
			c.AdaptWarm = &adapt.RunProfile{Sites: []adapt.SiteSeed{{Site: obj.SiteID(1), Pretenured: true}}}
			r := harnessRun(t, c)
			if len(r.Adapt.Decisions) == 0 || r.Adapt.Decisions[0].Verb != trace.AdaptWarm {
				t.Fatal("the advisor did not start from the warm profile")
			}
		},
		"TrainScale": func(t *testing.T, c harness.RunConfig) {
			c.Kind = harness.KindGenPretenure
			other := workload.Scale{Repeat: 0.004, Depth: 0.3}
			own := harnessRun(t, c)
			c.Scale = other
			trained := harnessRun(t, c)
			c.Scale, c.TrainScale = knobScale, other
			r := harnessRun(t, c)
			if r.Policy != trained.Policy || r.Policy == own.Policy {
				t.Fatal("the run did not take its policy from the TrainScale calibration")
			}
		},
		"Threads": func(t *testing.T, c harness.RunConfig) {
			// The server family serves request r on thread r mod Threads.
			c.Workload, c.Scale, c.K = "ServerSteady", workload.Scale{Repeat: 0.01}, 2
			single := harnessRun(t, c)
			c.Threads = 3
			if r := harnessRun(t, c); r.Stats == single.Stats {
				t.Fatal("three threads left every collector statistic unchanged")
			}
		},
		"GCWorkers": func(t *testing.T, c harness.RunConfig) {
			c.GCWorkers = 4
			if r := harnessRun(t, c); r.Stats.ParallelQuanta == 0 {
				t.Fatal("no parallel quanta")
			}
		},
		"DeferMajor": func(t *testing.T, c harness.RunConfig) {
			c.K = 2
			inPause := harnessRun(t, c)
			c.DeferMajor = true
			deferred := harnessRun(t, c)
			if deferred.Stats.NumMajor == 0 || deferred.Stats.MaxPauseCycles >= inPause.Stats.MaxPauseCycles {
				t.Fatalf("deferred majors' worst pause %d, in-pause majors' %d; want it shorter",
					deferred.Stats.MaxPauseCycles, inPause.Stats.MaxPauseCycles)
			}
		},
		"OldCollector": func(t *testing.T, c harness.RunConfig) {
			c.K, c.OldCollector = 2, core.OldMarkSweep
			if r := harnessRun(t, c); r.Stats.WordsMarked == 0 {
				t.Fatal("mark-sweep marked no words")
			}
		},
	}, map[string]string{
		"Workload": "selects the program, not the collector",
		"Scale":    "sizes the program, not the collector",
		"Sanitize": "a checking decorator whose results are byte-identical by contract (TestSanitizedTableByteIdentical)",
	})
}

// runAll runs cfgs through RunAll under opts and returns the results.
func runAll(t *testing.T, opts harness.Options, cfgs ...harness.RunConfig) []*harness.RunResult {
	t.Helper()
	rs, err := harness.RunAll(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func testOptionsKnobs(t *testing.T) {
	gen := harness.RunConfig{Workload: "Color", Scale: knobScale, Kind: harness.KindGenerational}
	semi := gen
	semi.Kind = harness.KindSemispace
	checkKnobs(t, harness.Options{Parallelism: 1}, knobCases[harness.Options]{
		"Sanitize": func(t *testing.T, o harness.Options) {
			// The sanitizer's results are byte-identical by contract, so
			// what can be seen is that the run asked for it.
			o.Sanitize = true
			if !runAll(t, o, gen)[0].Config.Sanitize {
				t.Fatal("the run was not sanitized")
			}
		},
		"Trace": func(t *testing.T, o harness.Options) {
			o.Trace = true
			if r := runAll(t, o, gen)[0]; r.Trace == nil || len(r.Trace.Events()) == 0 {
				t.Fatal("no trace events")
			}
		},
		"TraceHeap": func(t *testing.T, o harness.Options) {
			o.Trace, o.TraceHeap = true, true
			if r := runAll(t, o, gen)[0]; len(r.Trace.Data("").Heap) == 0 {
				t.Fatal("no heap samples")
			}
		},
		"TraceSink": func(t *testing.T, o harness.Options) {
			var got []*trace.RunData
			o.TraceSink = func(b []*trace.RunData) { got = b }
			if r := runAll(t, o, gen)[0]; r.Trace == nil || len(got) != 1 {
				t.Fatalf("recorder %v, %d runs sunk; want a traced run, sunk once", r.Trace != nil, len(got))
			}
		},
		"Adapt": func(t *testing.T, o harness.Options) {
			o.Adapt = true
			rs := runAll(t, o, gen, semi)
			if rs[0].Adapt == nil || rs[0].Adapt.Samples == 0 {
				t.Fatal("the advisor saw no samples")
			}
			if rs[1].Adapt != nil {
				t.Fatal("the semispace run was given an advisor")
			}
		},
		"AdaptWarm": func(t *testing.T, o harness.Options) {
			o.Adapt = true
			o.AdaptWarm = &adapt.Store{Profiles: []*adapt.RunProfile{{Workload: "Color",
				Sites: []adapt.SiteSeed{{Site: obj.SiteID(1), Pretenured: true}}}}}
			r := runAll(t, o, gen)[0]
			if len(r.Adapt.Decisions) == 0 || r.Adapt.Decisions[0].Verb != trace.AdaptWarm {
				t.Fatal("the advisor did not start from the stored profile")
			}
		},
		"AdaptSink": func(t *testing.T, o harness.Options) {
			var got []*adapt.RunProfile
			o.AdaptSink = func(b []*adapt.RunProfile) { got = b }
			rs := runAll(t, o, gen, semi)
			if rs[0].Adapt == nil || rs[1].Adapt != nil || len(got) != 1 || got[0].Workload != "Color" {
				t.Fatalf("%d profiles sunk; want the generational run's alone", len(got))
			}
		},
		"Threads": func(t *testing.T, o harness.Options) {
			// The server family serves request r on thread r mod Threads.
			server := harness.RunConfig{Workload: "ServerSteady", Scale: workload.Scale{Repeat: 0.01},
				Kind: harness.KindGenerational, K: 2}
			single := runAll(t, o, server)[0]
			o.Threads = 3
			if r := runAll(t, o, server)[0]; r.Stats == single.Stats {
				t.Fatal("three threads left every collector statistic unchanged")
			}
		},
		"GCWorkers": func(t *testing.T, o harness.Options) {
			o.GCWorkers = 4
			if r := runAll(t, o, gen)[0]; r.Stats.ParallelQuanta == 0 {
				t.Fatal("no parallel quanta")
			}
		},
		"OldCollector": func(t *testing.T, o harness.Options) {
			o.OldCollector = core.OldMarkSweep
			g, s := gen, semi
			g.K, s.K = 2, 2
			rs := runAll(t, o, g, s)
			if rs[0].Stats.WordsMarked == 0 {
				t.Fatal("mark-sweep marked no words")
			}
			if rs[1].Config.OldCollector != core.OldCopy {
				t.Fatalf("the semispace run was given old collector %v", rs[1].Config.OldCollector)
			}
		},
	}, map[string]string{
		"Parallelism": "sizes the worker pool; results are identical at every size (TestParallelTableIdenticalToSerial)",
		"Events":      "a progress hook that observes runs and configures none",
	})
}

// fuzzCollector builds and runs a generated program under cfg and returns
// the collector Build made for it, captured through the wrap hook.
func fuzzCollector(t *testing.T, cfg Config) core.Collector {
	t.Helper()
	var col core.Collector
	cfg.wrap = func(c core.Collector) core.Collector {
		col = c
		return c
	}
	if out := execute(Generate(3), cfg, false, false); out.panicked != nil {
		t.Fatalf("run panicked: %v", out.panicked)
	}
	return col
}

// fuzzGen is fuzzCollector for a configuration that must build the
// generational collector.
func fuzzGen(t *testing.T, cfg Config) *core.Generational {
	t.Helper()
	g, ok := fuzzCollector(t, cfg).(*core.Generational)
	if !ok {
		t.Fatal("collector is not generational")
	}
	return g
}

func testFuzzKnobs(t *testing.T) {
	checkKnobs(t, Config{}, knobCases[Config]{
		"Semispace": func(t *testing.T, c Config) {
			c.Semispace = true
			if n := fuzzCollector(t, c).Name(); n != "semispace" {
				t.Fatalf("collector %q, want semispace", n)
			}
		},
		"MarkerN": func(t *testing.T, c Config) {
			c.MarkerN = 3
			if got := fuzzGen(t, c).Inspect().MarkerN; got != 3 {
				t.Fatalf("MarkerN %d, want 3", got)
			}
		},
		"Cards": func(t *testing.T, c Config) {
			c.Cards = true
			if fuzzGen(t, c).Inspect().Cards == nil {
				t.Fatal("no card table")
			}
		},
		"AgingMinors": func(t *testing.T, c Config) {
			c.AgingMinors = 2
			if n := fuzzCollector(t, c).Name(); !strings.Contains(n, "+aging2") {
				t.Fatalf("collector %q, want +aging2", n)
			}
		},
		"Pretenure": func(t *testing.T, c Config) {
			c.Pretenure = true
			if fuzzGen(t, c).Inspect().Policy.Len() != len(PretenureSites) {
				t.Fatal("the collector does not hold the pretenure policy")
			}
		},
		"Adapt": func(t *testing.T, c Config) {
			c.Adapt = true
			if n := fuzzCollector(t, c).Name(); !strings.Contains(n, "+adapt") {
				t.Fatalf("collector %q, want +adapt", n)
			}
		},
		"Workers": func(t *testing.T, c Config) {
			c.Workers = 2
			if n := fuzzCollector(t, c).Name(); !strings.Contains(n, "+gcw2") {
				t.Fatalf("collector %q, want +gcw2", n)
			}
		},
		"Old": func(t *testing.T, c Config) {
			c.Old = core.OldMarkCompact
			if got := fuzzGen(t, c).Inspect().OldCollector; got != core.OldMarkCompact {
				t.Fatalf("old collector %v, want markcompact", got)
			}
		},
	}, map[string]string{
		"Name": "labels failures and reports",
		"wrap": "the fault-injection hook this test captures the built collector through",
	})
}
