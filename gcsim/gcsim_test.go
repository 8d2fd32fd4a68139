package gcsim

import (
	"slices"
	"strings"
	"testing"
)

func TestNewRuntimeDefaults(t *testing.T) {
	r := NewRuntime(Config{})
	if r.CollectorName() != "generational" {
		t.Fatalf("default collector = %q", r.CollectorName())
	}
	if r.Mutator() == nil {
		t.Fatal("no mutator")
	}
}

func TestQuickstartPattern(t *testing.T) {
	r := NewRuntime(Config{Collector: Generational, NurseryWords: 512})
	m := r.Mutator()
	frame := m.PtrFrame("main", 2)
	m.Call(frame, func() {
		for i := uint64(0); i < 2000; i++ {
			m.ConsInt(1, i, 1, 1)
		}
		n := m.ListLen(1, 2)
		if n != 2000 {
			t.Fatalf("list length = %d", n)
		}
	})
	if r.Stats().NumGC == 0 {
		t.Fatal("no collections despite tiny nursery")
	}
	if r.GCSeconds() <= 0 || r.ClientSeconds() <= 0 {
		t.Fatal("no time charged")
	}
}

func TestAllCollectorChoicesRunNqueen(t *testing.T) {
	scale := Scale{Repeat: 0.0001}
	var ref uint64
	choices := []CollectorChoice{Semispace, Generational, GenerationalMarkers, GenerationalFull}
	for i, c := range choices {
		cfg := Config{Collector: c}
		if c != Semispace {
			// Validate rejects generational knobs on the semispace baseline
			// (it used to ignore them silently).
			cfg.NurseryWords = 2048
		}
		if c == GenerationalFull {
			cfg.Pretenure = NewPretenurePolicy(map[SiteID]PretenureDecision{801: {}})
		}
		r := NewRuntime(cfg)
		check, err := r.RunBenchmark("Nqueen", scale)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = check
		} else if check != ref {
			t.Fatalf("collector %d check %#x want %#x", c, check, ref)
		}
	}
}

func TestProfileToPolicy(t *testing.T) {
	r := NewRuntime(Config{Profile: true, NurseryWords: 2048})
	if _, err := r.RunBenchmark("Nqueen", Scale{Repeat: 0.004}); err != nil {
		t.Fatal(err)
	}
	p := r.Profiler()
	if p == nil {
		t.Fatal("profiler missing")
	}
	pol := PolicyFromProfile(p, 80, 32)
	if pol.Len() == 0 {
		t.Fatal("profile produced no pretenure sites for Nqueen")
	}
	// Re-run with the derived policy: same answer, less copying.
	base := NewRuntime(Config{NurseryWords: 2048})
	cb, _ := base.RunBenchmark("Nqueen", Scale{Repeat: 0.004})
	pre := NewRuntime(Config{Collector: GenerationalFull, Pretenure: pol, NurseryWords: 2048})
	cp, _ := pre.RunBenchmark("Nqueen", Scale{Repeat: 0.004})
	if cb != cp {
		t.Fatal("policy changed the computation")
	}
	if pre.Stats().BytesCopied >= base.Stats().BytesCopied {
		t.Fatalf("derived policy did not cut copying: %d vs %d",
			pre.Stats().BytesCopied, base.Stats().BytesCopied)
	}
}

func TestBenchmarksListing(t *testing.T) {
	names := Benchmarks()
	if len(names) != 11 {
		t.Fatalf("expected 11 benchmarks, got %d", len(names))
	}
	for _, n := range names {
		info, err := Describe(n)
		if err != nil {
			t.Fatal(err)
		}
		if info.Description == "" || len(info.Sites) == 0 {
			t.Errorf("%s metadata incomplete", n)
		}
	}
	if _, err := Describe("bogus"); err == nil {
		t.Fatal("Describe accepted unknown benchmark")
	}
}

func TestExperimentDispatch(t *testing.T) {
	var b strings.Builder
	if err := ExperimentOpts(&b, "table1", DefaultScale, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Knuth-Bendix") {
		t.Fatal("table1 output incomplete")
	}
	if err := ExperimentOpts(&b, "nope", DefaultScale, RunOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Experiments()) < 10 {
		t.Fatal("experiment list too short")
	}
}

// TestFigure2StoreOutput: Figure2Store writes the Figure 2 report and
// returns one profile per profiled benchmark, whose pretenured sites are
// the ones the paper's cutoff selects.
func TestFigure2StoreOutput(t *testing.T) {
	var b strings.Builder
	store, err := Figure2Store(&b, Scale{Repeat: 0.001, Depth: 0.15}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(b.String(), "heap profile end") != 2 {
		t.Fatalf("want two profile reports:\n%s", b.String())
	}
	if len(store.Profiles) != 2 || store.Profiles[1].Workload != "Nqueen" {
		t.Fatalf("store has %d profiles, want Knuth-Bendix and Nqueen", len(store.Profiles))
	}
	pretenured := 0
	for _, s := range store.Profiles[1].Sites {
		if s.Pretenured {
			pretenured++
		}
	}
	if pretenured == 0 {
		t.Fatal("no Nqueen site is pretenured at the paper's cutoff")
	}
}

func TestTryCatchExposedViaMutator(t *testing.T) {
	r := NewRuntime(Config{})
	m := r.Mutator()
	f := m.PtrFrame("f", 1)
	caught := false
	m.Call(f, func() {
		m.TryCatch(func() {
			m.Call(f, func() {
				m.Call(f, func() {
					m.Raise()
				})
			})
		}, func() {
			caught = true
		})
	})
	if !caught {
		t.Fatal("exception not caught")
	}
}

func TestAgingConfigThroughFacade(t *testing.T) {
	base := NewRuntime(Config{NurseryWords: 2048})
	cb, err := base.RunBenchmark("Nqueen", Scale{Repeat: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	aging := NewRuntime(Config{NurseryWords: 2048, AgingMinors: 3})
	ca, err := aging.RunBenchmark("Nqueen", Scale{Repeat: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	if cb != ca {
		t.Fatal("aging changed the computation")
	}
	if aging.CollectorName() != "generational+aging3" {
		t.Fatalf("collector name = %q", aging.CollectorName())
	}
	// Aging copies more (tenured-bound data copied repeatedly) — the very
	// effect §7.2 says pretenuring fixes.
	if aging.Stats().BytesCopied <= base.Stats().BytesCopied {
		t.Fatalf("aging did not increase copying: %d vs %d",
			aging.Stats().BytesCopied, base.Stats().BytesCopied)
	}
}

func TestExperimentAgingListed(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "figure2", "elide", "barrier", "aging", "markersweep",
		"adapt", "slo", "oldgen",
	}
	if got := Experiments(); !slices.Equal(got, want) {
		t.Fatalf("Experiments() = %q, want %q", got, want)
	}
}

func TestTimeAccessorsAndCollect(t *testing.T) {
	r := NewRuntime(Config{Collector: GenerationalMarkers, NurseryWords: 512})
	m := r.Mutator()
	f := m.PtrFrame("f", 1)
	m.Call(f, func() {
		for i := uint64(0); i < 500; i++ {
			m.ConsInt(1, i, 1, 1)
		}
	})
	r.Collect(true)
	if r.GCSeconds() <= 0 {
		t.Fatal("no GC time")
	}
	if d := r.GCStackSeconds() + r.GCCopySeconds() - r.GCSeconds(); d > 1e-12 || d < -1e-12 {
		t.Fatalf("stack+copy != total GC time (delta %g)", d)
	}
	opts := DefaultReportOptions("x")
	if opts.CutoffPct != 80 || opts.Title != "x" {
		t.Fatalf("DefaultReportOptions = %+v", opts)
	}
}
