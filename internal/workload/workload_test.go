package workload

import (
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/rt"
)

// testScale keeps the differential tests fast.
var testScale = Scale{Repeat: 0.004}

type runOut struct {
	result Result
	stats  core.GCStats
	stack  *rt.Stack
}

func runUnder(t *testing.T, w Workload, mk func(stack *rt.Stack, meter *costmodel.Meter) core.Collector, scale Scale) runOut {
	t.Helper()
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	col := mk(stack, meter)
	m := NewMutator(col, stack, table, meter)
	res := w.Run(m, scale)
	if stack.Depth() != 0 {
		t.Fatalf("%s left %d frames on the stack", w.Name(), stack.Depth())
	}
	if stack.HandlerDepth() != 0 {
		t.Fatalf("%s left %d handlers installed", w.Name(), stack.HandlerDepth())
	}
	return runOut{result: res, stats: *col.Stats(), stack: stack}
}

func collectorConfigs() map[string]func(stack *rt.Stack, meter *costmodel.Meter) core.Collector {
	return map[string]func(stack *rt.Stack, meter *costmodel.Meter) core.Collector{
		"semispace": func(s *rt.Stack, m *costmodel.Meter) core.Collector {
			return core.NewSemispace(s, m, nil, core.Config{BudgetWords: 1 << 22})
		},
		"gen": func(s *rt.Stack, m *costmodel.Meter) core.Collector {
			return core.NewGenerational(s, m, nil, core.Config{
				BudgetWords: 1 << 22, NurseryWords: 8 * 1024})
		},
		"gen-markers": func(s *rt.Stack, m *costmodel.Meter) core.Collector {
			return core.NewGenerational(s, m, nil, core.Config{
				BudgetWords: 1 << 22, NurseryWords: 8 * 1024, MarkerN: 25})
		},
		"gen-tiny-nursery": func(s *rt.Stack, m *costmodel.Meter) core.Collector {
			return core.NewGenerational(s, m, nil, core.Config{
				BudgetWords: 1 << 22, NurseryWords: 1024, MarkerN: 10})
		},
		"gen-marksweep": func(s *rt.Stack, m *costmodel.Meter) core.Collector {
			return core.NewGenerational(s, m, nil, core.Config{
				BudgetWords: 1 << 22, NurseryWords: 8 * 1024,
				OldCollector: core.OldMarkSweep})
		},
		"gen-markcompact": func(s *rt.Stack, m *costmodel.Meter) core.Collector {
			return core.NewGenerational(s, m, nil, core.Config{
				BudgetWords: 1 << 22, NurseryWords: 8 * 1024,
				OldCollector: core.OldMarkCompact})
		},
	}
}

// TestWorkloadsDeterministicAcrossCollectors is the central differential
// test: every benchmark must compute the same self-check under every
// collector configuration (and under repeated runs).
func TestWorkloadsDeterministicAcrossCollectors(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name(), func(t *testing.T) {
			var ref Result
			first := true
			for cname, mk := range collectorConfigs() {
				out := runUnder(t, w, mk, testScale)
				if out.stats.NumGC == 0 && cname == "gen-tiny-nursery" {
					t.Errorf("%s under %s: no collections at all — workload too small to test",
						w.Name(), cname)
				}
				if first {
					ref = out.result
					first = false
					continue
				}
				if out.result != ref {
					t.Errorf("%s under %s: check %#x, want %#x",
						w.Name(), cname, out.result.Check, ref.Check)
				}
			}
		})
	}
}

// TestWorkloadsDeterministicAcrossScales verifies runs are reproducible
// for the same scale (run twice, same collector).
func TestWorkloadsRepeatable(t *testing.T) {
	mk := collectorConfigs()["gen"]
	for _, w := range All() {
		t.Run(w.Name(), func(t *testing.T) {
			a := runUnder(t, w, mk, testScale)
			b := runUnder(t, w, mk, testScale)
			if a.result != b.result {
				t.Errorf("%s not repeatable: %#x vs %#x", w.Name(), a.result.Check, b.result.Check)
			}
			if a.stats.BytesAllocated != b.stats.BytesAllocated {
				t.Errorf("%s allocation not deterministic", w.Name())
			}
		})
	}
}

// TestWorkloadMetadata checks the descriptive interface.
func TestWorkloadMetadata(t *testing.T) {
	for _, w := range All() {
		if w.Name() == "" || w.Description() == "" {
			t.Errorf("workload with empty metadata: %+v", w)
		}
		if len(w.Sites()) == 0 {
			t.Errorf("%s documents no allocation sites", w.Name())
		}
	}
}

func TestScaleReps(t *testing.T) {
	s := Scale{Repeat: 0.01}
	if s.Reps(10000) != 100 {
		t.Errorf("Reps(10000) = %d", s.Reps(10000))
	}
	if s.Reps(10) != 1 {
		t.Errorf("Reps(10) = %d, want clamp to 1", s.Reps(10))
	}
	if PaperScale.Reps(123) != 123 {
		t.Error("PaperScale must be identity")
	}
}

func TestScaleCanon(t *testing.T) {
	// Zero Depth documents as 1.0; Canon makes the default explicit so
	// caches keyed on a Scale treat the two spellings as one.
	if got := (Scale{Repeat: 0.5}).Canon(); got != (Scale{Repeat: 0.5, Depth: 1.0}) {
		t.Errorf("Canon zero depth = %+v", got)
	}
	if got := (Scale{Repeat: 0.5, Depth: 0.3}).Canon(); got != (Scale{Repeat: 0.5, Depth: 0.3}) {
		t.Errorf("Canon explicit depth = %+v", got)
	}
	// Canon must agree with DepthOf's interpretation of the zero value.
	z, o := Scale{Repeat: 1}, Scale{Repeat: 1, Depth: 1.0}
	if z.DepthOf(40, 1) != o.DepthOf(40, 1) {
		t.Error("zero and unit depth scale structural depths differently")
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, err := Get("Nqueen"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown workload lookup succeeded")
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names/All mismatch")
	}
}
