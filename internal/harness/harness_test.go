package harness

import (
	"strings"
	"testing"

	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/prof"
	"tilgc/internal/workload"
)

// tiny keeps harness tests fast.
var tiny = workload.Scale{Repeat: 0.002, Depth: 0.3}

func TestCalibrateCachesAndMeasures(t *testing.T) {
	ClearCalibrationCache()
	c1, err := Calibrate("Nqueen", tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c1.maxLiveWords == 0 {
		t.Fatal("calibration measured zero live data")
	}
	c2, _ := Calibrate("Nqueen", tiny, 0)
	if c1 != c2 {
		t.Fatal("calibration not cached")
	}
	// An explicit cutoff equal to the default shares the cache entry.
	c3, _ := Calibrate("Nqueen", tiny, prof.PaperCutoffPct)
	if c1 != c3 {
		t.Fatal("default cutoff not normalized in the cache key")
	}
	// Scale{Depth: 0} documents zero as meaning 1.0, so it must share a
	// cache entry with the explicit Depth 1.0.
	cz, _ := Calibrate("Nqueen", workload.Scale{Repeat: tiny.Repeat}, 0)
	co, _ := Calibrate("Nqueen", workload.Scale{Repeat: tiny.Repeat, Depth: 1.0}, 0)
	if cz != co {
		t.Fatal("Scale{Depth: 0} and Scale{Depth: 1} calibrated separately")
	}
}

func TestCalibrationPolicySelectsLongLivedSites(t *testing.T) {
	ClearCalibrationCache()
	c, err := Calibrate("Nqueen", workload.Scale{Repeat: 0.005}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.policy.Len() == 0 {
		t.Fatal("Nqueen policy selected no sites; profile-driven pretenuring impossible")
	}
}

func TestRunProducesConsistentChecks(t *testing.T) {
	kinds := []CollectorKind{
		KindSemispace, KindGenerational, KindGenMarkers,
		KindGenMarkersPretenure, KindGenMarkersPretenureElide, KindGenCards,
	}
	var ref uint64
	for i, kind := range kinds {
		r, err := Run(RunConfig{Workload: "Life", Scale: tiny, Kind: kind, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = r.Check
		} else if r.Check != ref {
			t.Fatalf("%v check %#x, want %#x", kind, r.Check, ref)
		}
		if r.Times.Total() == 0 {
			t.Fatalf("%v charged no time", kind)
		}
	}
}

func TestBudgetAffectsGCCount(t *testing.T) {
	small, err := Run(RunConfig{Workload: "Life", Scale: tiny, Kind: KindSemispace, K: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(RunConfig{Workload: "Life", Scale: tiny, Kind: KindSemispace, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.NumGC <= large.Stats.NumGC {
		t.Fatalf("k=1.5 ran %d GCs, k=4 ran %d; smaller budgets must collect more",
			small.Stats.NumGC, large.Stats.NumGC)
	}
}

func TestMarkersReduceKBGCStackCost(t *testing.T) {
	if raceEnabled {
		t.Skip("near-paper-scale Knuth-Bendix run; too slow under the race detector")
	}
	scale := workload.Scale{Repeat: 0.004, Depth: 1}
	base, err := Run(RunConfig{Workload: "Knuth-Bendix", Scale: scale, Kind: KindGenerational, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := Run(RunConfig{Workload: "Knuth-Bendix", Scale: scale, Kind: KindGenMarkers, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mk.Check != base.Check {
		t.Fatal("markers changed the computation")
	}
	if mk.Times.GCStack*2 > base.Times.GCStack {
		t.Fatalf("markers did not halve KB stack cost: %d vs %d",
			mk.Times.GCStack, base.Times.GCStack)
	}
}

func TestPretenuringReducesNqueenCopying(t *testing.T) {
	scale := workload.Scale{Repeat: 0.01}
	base, err := Run(RunConfig{Workload: "Nqueen", Scale: scale, Kind: KindGenMarkers, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Run(RunConfig{Workload: "Nqueen", Scale: scale, Kind: KindGenMarkersPretenure, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Check != base.Check {
		t.Fatal("pretenuring changed the computation")
	}
	if pre.Stats.BytesCopied >= base.Stats.BytesCopied {
		t.Fatalf("pretenuring did not reduce copying: %d vs %d",
			pre.Stats.BytesCopied, base.Stats.BytesCopied)
	}
}

func TestProfileRunAttachesProfiler(t *testing.T) {
	r, err := Run(RunConfig{Workload: "Nqueen", Scale: tiny, Kind: KindGenerational, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Profiler == nil || r.Profiler.TotalAllocated() == 0 {
		t.Fatal("profiler missing or empty")
	}
}

func TestTableRenderersProduceOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("profiling and k=4 sweeps; too slow under the race detector")
	}
	par := Options{Parallelism: 4}
	cases := map[string]func(*strings.Builder) error{
		"table1":  func(b *strings.Builder) error { return Table1(b) },
		"figure2": func(b *strings.Builder) error { _, err := Figure2(b, tiny, par); return err },
		"elide":   func(b *strings.Builder) error { return ExtensionElide(b, tiny, par) },
		"barrier": func(b *strings.Builder) error { return ExtensionBarrier(b, tiny, par) },
	}
	for name, fn := range cases {
		var b strings.Builder
		if err := fn(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Len() < 100 {
			t.Fatalf("%s output suspiciously short:\n%s", name, b.String())
		}
	}
}

func TestTable5SmallScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("table sweep")
	}
	var b strings.Builder
	if err := Table5(&b, workload.Scale{Repeat: 0.002, Depth: 0.5}, Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Knuth-Bendix") || !strings.Contains(out, "decreased") {
		t.Fatalf("table 5 malformed:\n%s", out)
	}
}

func TestNurseryFor(t *testing.T) {
	if nurseryFor(1<<24) != 64*1024 {
		t.Error("big budget should give the 512KB nursery")
	}
	if n := nurseryFor(8 * 1024); n != 2*1024 {
		t.Errorf("small budget nursery = %d", n)
	}
	if n := nurseryFor(100); n != 1024 {
		t.Errorf("floor nursery = %d", n)
	}
}

func TestCollectorKindStrings(t *testing.T) {
	for k := KindSemispace; k <= KindGenAgingPretenure; k++ {
		if strings.Contains(k.String(), "CollectorKind") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if got := CollectorKind(9).String(); got != "CollectorKind(9)" {
		t.Errorf("kind 9 = %q, want CollectorKind(9)", got)
	}
}

// TestAllTableRenderers exercises every table renderer end to end at a
// tiny scale (slow: a full k-sweep per table).
func TestAllTableRenderers(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full table sweeps")
	}
	scale := workload.Scale{Repeat: 0.001, Depth: 0.15}
	par := Options{Parallelism: 4}
	renderers := map[string]func(*strings.Builder) error{
		"table2": func(b *strings.Builder) error { return Table2(b, scale, par) },
		"table3": func(b *strings.Builder) error { return Table3(b, scale, par) },
		"table4": func(b *strings.Builder) error { return Table4(b, scale, par) },
		"table6": func(b *strings.Builder) error { return Table6(b, scale, par) },
		"table7": func(b *strings.Builder) error { return Table7(b, scale, par) },
		"aging":  func(b *strings.Builder) error { return ExtensionAging(b, scale, par) },
		"msweep": func(b *strings.Builder) error {
			return MarkerSweep(b, scale, []string{"Color"}, []int{5, 50}, par)
		},
	}
	for name, fn := range renderers {
		var b strings.Builder
		if err := fn(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := b.String()
		if !strings.Contains(out, "Knuth-Bendix") && !strings.Contains(out, "Color") {
			t.Fatalf("%s output missing benchmarks:\n%s", name, out)
		}
	}
}

func TestAgingKindsRunCorrectly(t *testing.T) {
	var ref uint64
	for i, kind := range []CollectorKind{KindGenerational, KindGenAging, KindGenAgingPretenure} {
		r, err := Run(RunConfig{Workload: "Nqueen", Scale: tiny, Kind: kind, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = r.Check
		} else if r.Check != ref {
			t.Fatalf("%v check mismatch", kind)
		}
	}
}

// TestRunSemispaceHonoursMarkerN: MarkerN reaches the semispace
// collector, as it does through gcsim. Run used to drop it there, so a
// marker-spacing run measured the plain baseline and reused no frames.
func TestRunSemispaceHonoursMarkerN(t *testing.T) {
	base := RunConfig{Workload: "Color", Scale: tiny, Kind: KindSemispace, K: 3}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.MarkerN = 5
	marked, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.FramesReused != 0 {
		t.Fatalf("semispace without markers reused %d frames", plain.Stats.FramesReused)
	}
	if marked.Stats.FramesReused == 0 || marked.Stats.MarkersPlaced == 0 {
		t.Fatalf("semispace with MarkerN 5 placed %d markers and reused %d frames, want both > 0",
			marked.Stats.MarkersPlaced, marked.Stats.FramesReused)
	}
	if marked.Check != plain.Check {
		t.Fatalf("markers changed the client result: %x vs %x", marked.Check, plain.Check)
	}
}

// TestRunRejectsIgnoredOptions: an option the run would ignore is an
// error naming the field, never a quietly different experiment.
func TestRunRejectsIgnoredOptions(t *testing.T) {
	base := RunConfig{Workload: "Color", Scale: tiny}
	cases := []struct {
		name string
		set  func(*RunConfig)
		want string
	}{
		{"gen markerN", func(c *RunConfig) { c.Kind, c.MarkerN = KindGenerational, 5 }, "MarkerN"},
		{"cards markerN", func(c *RunConfig) { c.Kind, c.MarkerN = KindGenCards, 5 }, "MarkerN"},
		{"pretenure markerN", func(c *RunConfig) { c.Kind, c.MarkerN = KindGenPretenure, 5 }, "MarkerN"},
		{"aging markerN", func(c *RunConfig) { c.Kind, c.MarkerN = KindGenAging, 5 }, "MarkerN"},
		{"aging pretenure markerN", func(c *RunConfig) { c.Kind, c.MarkerN = KindGenAgingPretenure, 5 }, "MarkerN"},
		{"trace heap untraced", func(c *RunConfig) { c.Kind, c.TraceHeap = KindGenMarkers, true }, "TraceHeap"},
		{"no demote without adapt", func(c *RunConfig) { c.Kind, c.AdaptNoDemote = KindGenerational, true }, "AdaptNoDemote"},
		{"warm without adapt", func(c *RunConfig) { c.Kind, c.AdaptWarm = KindGenerational, &adapt.RunProfile{} }, "AdaptWarm"},
		{"semispace defer", func(c *RunConfig) { c.Kind, c.DeferMajor = KindSemispace, true }, "DeferMajor"},
		{"semispace old", func(c *RunConfig) { c.Kind, c.OldCollector = KindSemispace, core.OldMarkSweep }, "OldCollector"},
		{"unknown old", func(c *RunConfig) { c.Kind, c.OldCollector = KindGenerational, 9 }, "unknown OldCollector"},
		{"negative markerN", func(c *RunConfig) { c.Kind, c.MarkerN = KindGenMarkers, -3 }, "negative"},
		{"negative workers", func(c *RunConfig) { c.Kind, c.GCWorkers = KindGenMarkers, -2 }, "negative"},
		{"unknown kind", func(c *RunConfig) { c.Kind = KindGenAgingPretenure + 1 }, "unknown collector kind"},
	}
	for _, tc := range cases {
		cfg := base
		tc.set(&cfg)
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run error %v, want one naming %q", tc.name, err, tc.want)
		}
		if err != nil && tc.want == "MarkerN" && !strings.Contains(err.Error(), cfg.Kind.String()) {
			t.Errorf("%s: error %q does not name the kind %v", tc.name, err, cfg.Kind)
		}
	}
}

// TestRunAllRejectsNegativeOverrides: a batch-wide thread or worker
// override reaches every config that leaves its own unset, so a negative
// one fails Run's validation by field name instead of running as the
// default.
func TestRunAllRejectsNegativeOverrides(t *testing.T) {
	cfgs := []RunConfig{{Workload: "Color", Scale: tiny, Kind: KindGenMarkers, K: 3}}
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Parallelism: 1, Threads: -3}, "Threads -3"},
		{Options{Parallelism: 1, GCWorkers: -2}, "GCWorkers -2"},
	} {
		if _, err := RunAll(cfgs, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunAll error %v, want one naming %q", err, tc.want)
		}
	}
}

// TestRunAllRejectsUntracedTraceHeap: Options.TraceHeap on a batch that
// traces no run is an error naming the field, as RunConfig.TraceHeap
// without Trace is for a single run, not a quietly unsampled batch.
func TestRunAllRejectsUntracedTraceHeap(t *testing.T) {
	cfgs := []RunConfig{{Workload: "Color", Scale: tiny, Kind: KindGenerational}}
	if _, err := RunAll(cfgs, Options{Parallelism: 1, TraceHeap: true}); err == nil || !strings.Contains(err.Error(), "TraceHeap") {
		t.Fatalf("RunAll error %v, want one naming TraceHeap", err)
	}
}

// TestRunAllTraceHeapOnlyOnTracedRuns: Options.TraceHeap samples the runs
// the batch traces and leaves untraced runs valid and unsampled.
func TestRunAllTraceHeapOnlyOnTracedRuns(t *testing.T) {
	cfgs := []RunConfig{
		{Workload: "Color", Scale: tiny, Kind: KindGenMarkers, K: 3},
		{Workload: "Color", Scale: tiny, Kind: KindGenMarkers, K: 3, Trace: true},
	}
	rs, err := RunAll(cfgs, Options{Parallelism: 1, TraceHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Config.TraceHeap || rs[0].Trace != nil {
		t.Fatalf("untraced run got TraceHeap %v, recorder %v", rs[0].Config.TraceHeap, rs[0].Trace != nil)
	}
	if !rs[1].Config.TraceHeap || len(rs[1].Trace.Data("x").Heap) == 0 {
		t.Fatal("traced run recorded no heap samples under Options.TraceHeap")
	}
}
