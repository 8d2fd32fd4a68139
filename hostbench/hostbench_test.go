package main

import (
	"encoding/json"
	"os"
	"testing"

	"tilgc/gcsim"
)

// logWriter sends the benchmark's diagnostics to the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

type namedUnit struct{ Name, Unit string }

// benchmarkFile is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []namedUnit             `json:"end_to_end"`
	PerLayer  []namedUnit             `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickRuns runs every workload untraced and traced at the quick
// scale: every check passes, and the metrics are exactly the names and
// units BENCHMARK.json lists.
func TestQuickRuns(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := run(options{workload: name, seed: 7, trace: traced, scale: "quick"}, logWriter{t})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed", name, traced, res.Failed, res.Attempted)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			} else if got := res.Metrics["pass_frac"].Value; got != 1 {
				t.Errorf("%s: pass_frac = %v, want 1", name, got)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestDecoratorTransparent checks that the counting decorator changes
// nothing the simulation computes, and that it catches every collection.
func TestDecoratorTransparent(t *testing.T) {
	for _, name := range []string{"kb-markers", "stack-scan"} {
		w, err := newWorkload(name, scaleSizes["quick"], 1)
		if err != nil {
			t.Fatal(err)
		}
		g := w.(*gcsimWorkload)
		c, err := newChecker("quick", false, logWriter{t})
		if err != nil {
			t.Fatal(err)
		}
		g.setUp(c)

		plain := g.newRuntime()
		wantCheck, err := plain.RunBenchmark(g.program, g.scale)
		if err != nil {
			t.Fatal(err)
		}
		decorated := g.newRuntime()
		m := decorated.Mutator()
		d := newCountingCollector(m.Col)
		m.Col = d
		gotCheck, err := decorated.RunBenchmark(g.program, g.scale)
		if err != nil {
			t.Fatal(err)
		}
		if gotCheck != wantCheck {
			t.Errorf("%s: check %#x, undecorated %#x", name, gotCheck, wantCheck)
		}
		if *decorated.Stats() != *plain.Stats() {
			t.Errorf("%s: stats differ:\n%+v\n%+v", name, *decorated.Stats(), *plain.Stats())
		}
		if got, want := m.Meter.Snapshot(), plain.Mutator().Meter.Snapshot(); got != want {
			t.Errorf("%s: simulated cycles %+v, undecorated %+v", name, got, want)
		}
		if d.caught == 0 || !d.allCaught() {
			t.Errorf("%s: %d of %d collections inside timed calls", name, d.caught, decorated.Stats().NumGC)
		}
		if d.allocs == 0 || d.loads == 0 || d.stores == 0 {
			t.Errorf("%s: calls not counted: %d allocs, %d loads, %d stores", name, d.allocs, d.loads, d.stores)
		}
	}
}

// TestDecoratorTimesEveryAllocWhenUnpredictable checks the fallback: on a
// collector whose collections the decorator cannot predict, it times
// every Alloc and still catches every collection.
func TestDecoratorTimesEveryAllocWhenUnpredictable(t *testing.T) {
	r := gcsim.NewRuntime(gcsim.Config{Collector: gcsim.Semispace, BudgetWords: 4096})
	m := r.Mutator()
	d := newCountingCollector(m.Col)
	if d.nursery != nil {
		t.Fatal("semispace collections treated as predictable")
	}
	m.Col = d
	if _, err := r.RunBenchmark("Color", scaleSizes["quick"].color); err != nil {
		t.Fatal(err)
	}
	if r.Stats().NumGC == 0 || !d.allCaught() {
		t.Errorf("%d of %d collections inside timed calls", d.caught, r.Stats().NumGC)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tilgc/internal/core.(*Generational).Alloc":     "core",
		"tilgc/internal/workload.(*Mutator).Call.func1": "workload",
		"tilgc/gcsim.(*Runtime).RunBenchmark":           "gcsim",
		"main.(*countingCollector).Alloc":               "bench",
		"runtime.mallocgc":                              "goruntime",
		"internal/runtime/maps.(*Map).getWithKey":       "goruntime",
		"encoding/json.(*decodeState).object":           "stdlib",
		"_ExternalCode":                                 "goruntime",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
