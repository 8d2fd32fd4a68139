package workload

import (
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/rt"
)

// The shape tests guard the Table 2 characteristics the paper's results
// rest on. If a workload refactor drifts away from the paper's profile,
// these fail before the experiment tables silently change shape.

type shapeOut struct {
	stats   core.GCStats
	updates uint64
}

func measureShape(t *testing.T, name string, scale Scale) shapeOut {
	t.Helper()
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	col := core.NewGenerational(stack, meter, nil, core.Config{
		BudgetWords: 1 << 22, NurseryWords: 8 * 1024,
	})
	m := NewMutator(col, stack, table, meter)
	w, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(m, scale)
	return shapeOut{stats: *col.Stats(), updates: col.PointerUpdates()}
}

func TestShapeDeepStacksUnwindRarely(t *testing.T) {
	// Paper Table 2: for KB and Color, new frames per GC are ~10% of the
	// average depth ("most deep stacks unwind very infrequently").
	for _, name := range []string{"Knuth-Bendix", "Color"} {
		s := measureShape(t, name, Scale{Repeat: 0.004, Depth: 0.6})
		if s.stats.NumGC < 5 {
			t.Fatalf("%s: too few GCs (%d) to measure churn", name, s.stats.NumGC)
		}
		avg := s.stats.AvgDepthAtGC()
		churn := s.stats.AvgNewFrames()
		if churn > avg/3 {
			t.Errorf("%s: churn %0.1f of avg depth %0.1f exceeds 1/3 — deep stack no longer stable",
				name, churn, avg)
		}
		if avg < 100 {
			t.Errorf("%s: avg depth %0.1f — no longer a deep-stack benchmark", name, avg)
		}
	}
}

func TestShapeShallowBenchmarksStayShallow(t *testing.T) {
	// Checksum, FFT, Life must not grow deep stacks (Table 2: 4-6 avg).
	for _, name := range []string{"Checksum", "FFT", "Life"} {
		s := measureShape(t, name, Scale{Repeat: 0.002})
		if s.stats.MaxDepthAtGC > 12 {
			t.Errorf("%s: max depth at GC = %d, expected shallow", name, s.stats.MaxDepthAtGC)
		}
	}
}

func TestShapePegMutationDominates(t *testing.T) {
	// Peg's pointer-update count must dwarf every other benchmark's
	// (Table 2: four orders of magnitude).
	peg := measureShape(t, "Peg", Scale{Repeat: 0.004})
	if peg.updates < 1000 {
		t.Fatalf("Peg updates = %d; mutation storm gone", peg.updates)
	}
	for _, name := range []string{"Knuth-Bendix", "Life", "Nqueen", "Checksum"} {
		o := measureShape(t, name, Scale{Repeat: 0.004, Depth: 0.3})
		if o.updates*100 > peg.updates {
			t.Errorf("%s updates %d within 100x of Peg's %d", name, o.updates, peg.updates)
		}
	}
}

func TestShapeArrayVsRecordMix(t *testing.T) {
	// FFT is array-dominated; Life and KB are record-dominated (Table 2).
	fft := measureShape(t, "FFT", Scale{Repeat: 0.002})
	if fft.stats.ArrayBytes < 10*fft.stats.RecordBytes {
		t.Errorf("FFT records %d vs arrays %d — should be array-dominated",
			fft.stats.RecordBytes, fft.stats.ArrayBytes)
	}
	for _, name := range []string{"Life", "Knuth-Bendix", "Color"} {
		s := measureShape(t, name, Scale{Repeat: 0.002, Depth: 0.3})
		if s.stats.RecordBytes < 10*s.stats.ArrayBytes {
			t.Errorf("%s records %d vs arrays %d — should be record-dominated",
				name, s.stats.RecordBytes, s.stats.ArrayBytes)
		}
	}
}

func TestShapePIAUsesWindowedLifetimes(t *testing.T) {
	// PIA's live set must stay bounded (the sliding window) while
	// allocation grows — the tenured-dies-fast behaviour of §4.
	small := measureShape(t, "PIA", Scale{Repeat: 0.005})
	large := measureShape(t, "PIA", Scale{Repeat: 0.02})
	if large.stats.BytesAllocated < 3*small.stats.BytesAllocated {
		t.Fatalf("PIA allocation did not scale: %d vs %d",
			large.stats.BytesAllocated, small.stats.BytesAllocated)
	}
	if large.stats.MaxLiveBytes > 3*small.stats.MaxLiveBytes+1<<16 {
		t.Errorf("PIA live set grew with run length: %d vs %d — window broken",
			large.stats.MaxLiveBytes, small.stats.MaxLiveBytes)
	}
}
