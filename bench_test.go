// Package tilgc's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation, plus per-benchmark and
// ablation benches. b.N iterations re-run the experiment; reported ns/op
// measures the simulator itself, while each bench also reports the
// *simulated* metrics the paper's tables are built from (as custom
// benchmark metrics), so `go test -bench` output regenerates the paper's
// comparisons:
//
//	sim-gc-sec      simulated collector seconds per run
//	sim-client-sec  simulated mutator seconds per run
//	sim-copied-MB   megabytes copied per run
//	sim-numgc       collections per run
//
// Run everything with:
//
//	go test -bench=. -benchmem
package tilgc_test

import (
	"testing"

	"tilgc/gcsim"
	"tilgc/internal/harness"
	"tilgc/internal/workload"
)

// benchScale keeps each table bench in the seconds range while preserving
// every effect (see EXPERIMENTS.md for the scale's validation).
// TestWorkloadSimFacts pins exact simulated facts at this scale.
var benchScale = workload.Scale{Repeat: 0.01, Depth: 0.5}

// reportSim attaches the simulated measurements to the bench output.
func reportSim(b *testing.B, r *harness.RunResult) {
	b.ReportMetric(r.GC(), "sim-gc-sec")
	b.ReportMetric(r.Client(), "sim-client-sec")
	b.ReportMetric(float64(r.Stats.BytesCopied)/(1<<20), "sim-copied-MB")
	b.ReportMetric(float64(r.Stats.NumGC), "sim-numgc")
}

func runBench(b *testing.B, cfg harness.RunConfig) {
	b.Helper()
	var last *harness.RunResult
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportSim(b, last)
}

// ---- Table 3: semispace collector across k ----------------------------------

func BenchmarkTable3Semispace(b *testing.B) {
	for _, name := range harness.PaperOrder {
		for _, k := range harness.PaperKs {
			b.Run(benchName(name, k), func(b *testing.B) {
				runBench(b, harness.RunConfig{
					Workload: name, Scale: benchScale, Kind: harness.KindSemispace, K: k,
				})
			})
		}
	}
}

// ---- Table 4: generational collector across k --------------------------------

func BenchmarkTable4Generational(b *testing.B) {
	for _, name := range harness.PaperOrder {
		for _, k := range harness.PaperKs {
			b.Run(benchName(name, k), func(b *testing.B) {
				runBench(b, harness.RunConfig{
					Workload: name, Scale: benchScale, Kind: harness.KindGenerational, K: k,
				})
			})
		}
	}
}

// ---- Table 5: stack markers at k = 4 ------------------------------------------

func BenchmarkTable5Markers(b *testing.B) {
	for _, name := range harness.PaperOrder {
		b.Run(name+"/without", func(b *testing.B) {
			runBench(b, harness.RunConfig{
				Workload: name, Scale: benchScale, Kind: harness.KindGenerational, K: 4,
			})
		})
		b.Run(name+"/with", func(b *testing.B) {
			runBench(b, harness.RunConfig{
				Workload: name, Scale: benchScale, Kind: harness.KindGenMarkers, K: 4,
			})
		})
	}
}

// ---- Table 6: pretenuring across k ---------------------------------------------

func BenchmarkTable6Pretenure(b *testing.B) {
	for _, name := range harness.PretenureTargets {
		for _, k := range harness.PaperKs {
			b.Run(benchName(name, k), func(b *testing.B) {
				runBench(b, harness.RunConfig{
					Workload: name, Scale: benchScale,
					Kind: harness.KindGenMarkersPretenure, K: k,
				})
			})
		}
	}
}

// ---- Table 7: the four configurations at k = 4 ----------------------------------

func BenchmarkTable7Configs(b *testing.B) {
	kinds := []harness.CollectorKind{
		harness.KindSemispace, harness.KindGenerational,
		harness.KindGenMarkers, harness.KindGenMarkersPretenure,
	}
	for _, name := range harness.PaperOrder {
		for _, kind := range kinds {
			b.Run(name+"/"+kind.String(), func(b *testing.B) {
				runBench(b, harness.RunConfig{
					Workload: name, Scale: benchScale, Kind: kind, K: 4,
				})
			})
		}
	}
}

// ---- Table 2 / Figure 2: instrumentation passes -----------------------------------

func BenchmarkTable2Characteristics(b *testing.B) {
	for _, name := range harness.PaperOrder {
		b.Run(name, func(b *testing.B) {
			runBench(b, harness.RunConfig{
				Workload: name, Scale: benchScale, Kind: harness.KindGenerational,
			})
		})
	}
}

func BenchmarkFigure2Profiles(b *testing.B) {
	for _, name := range []string{"Knuth-Bendix", "Nqueen"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := harness.Run(harness.RunConfig{
					Workload: name, Scale: benchScale,
					Kind: harness.KindGenerational, Profile: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if r.Profiler.TotalAllocated() == 0 {
					b.Fatal("empty profile")
				}
			}
		})
	}
}

// ---- Extensions and ablations ------------------------------------------------------

func BenchmarkExtensionScanElision(b *testing.B) {
	for _, name := range []string{"Nqueen", "Knuth-Bendix"} {
		for _, kind := range []harness.CollectorKind{
			harness.KindGenMarkersPretenure, harness.KindGenMarkersPretenureElide,
		} {
			b.Run(name+"/"+kind.String(), func(b *testing.B) {
				runBench(b, harness.RunConfig{
					Workload: name, Scale: benchScale, Kind: kind, K: 4,
				})
			})
		}
	}
}

func BenchmarkExtensionWriteBarrier(b *testing.B) {
	for _, kind := range []harness.CollectorKind{
		harness.KindGenerational, harness.KindGenCards,
	} {
		b.Run("Peg/"+kind.String(), func(b *testing.B) {
			runBench(b, harness.RunConfig{
				Workload: "Peg", Scale: benchScale, Kind: kind, K: 4,
			})
		})
	}
}

func BenchmarkExtensionAging(b *testing.B) {
	kinds := []harness.CollectorKind{
		harness.KindGenMarkers, harness.KindGenMarkersPretenure,
		harness.KindGenAging, harness.KindGenAgingPretenure,
	}
	for _, name := range []string{"Knuth-Bendix", "Nqueen"} {
		for _, kind := range kinds {
			b.Run(name+"/"+kind.String(), func(b *testing.B) {
				runBench(b, harness.RunConfig{
					Workload: name, Scale: benchScale, Kind: kind, K: 4,
				})
			})
		}
	}
}

func BenchmarkAblationMarkerSpacing(b *testing.B) {
	for _, n := range []int{5, 25, 100} {
		b.Run(markerName(n), func(b *testing.B) {
			runBench(b, harness.RunConfig{
				Workload: "Knuth-Bendix", Scale: benchScale,
				Kind: harness.KindGenMarkers, K: 4, MarkerN: n,
			})
		})
	}
}

// ---- Parallel experiment runner -----------------------------------------------------

// table7Configs is the Table 7 run matrix (4 collector configurations ×
// all benchmarks), the densest sweep the harness runs — the natural
// stress case for the worker pool.
func table7Configs() []harness.RunConfig {
	kinds := []harness.CollectorKind{
		harness.KindSemispace, harness.KindGenerational,
		harness.KindGenMarkers, harness.KindGenMarkersPretenure,
	}
	var cfgs []harness.RunConfig
	for _, name := range harness.PaperOrder {
		for _, kind := range kinds {
			cfgs = append(cfgs, harness.RunConfig{
				Workload: name, Scale: benchScale, Kind: kind, K: 4,
			})
		}
	}
	return cfgs
}

// BenchmarkRunAllSweep measures a full Table 7 sweep through the worker
// pool at increasing parallelism; the speedup from serial to parallel is
// the whole point of the batch runner, and every variant produces
// identical simulated results.
func BenchmarkRunAllSweep(b *testing.B) {
	cfgs := table7Configs()
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"parallel-4", 4},
		{"parallel-maxprocs", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var last []*harness.RunResult
			for i := 0; i < b.N; i++ {
				rs, err := harness.RunAll(cfgs, harness.Options{Parallelism: bc.par})
				if err != nil {
					b.Fatal(err)
				}
				last = rs
			}
			reportSim(b, last[len(last)-1])
		})
	}
}

// ---- Raw simulator microbenchmarks ----------------------------------------------------

func BenchmarkSimulatorAllocate(b *testing.B) {
	rt := gcsim.NewRuntime(gcsim.Config{NurseryWords: 64 * 1024})
	m := rt.Mutator()
	f := m.PtrFrame("bench", 1)
	m.Call(f, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ConsInt(1, uint64(i), 1, 1)
			if i%1024 == 1023 {
				m.SetSlotNil(1) // keep the live set bounded
			}
		}
	})
}

func BenchmarkSimulatorCallReturn(b *testing.B) {
	rt := gcsim.NewRuntime(gcsim.Config{})
	m := rt.Mutator()
	f := m.PtrFrame("bench", 2)
	m.Call(f, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Call(f, func() {})
		}
	})
}

func BenchmarkSimulatorMinorGC(b *testing.B) {
	rt := gcsim.NewRuntime(gcsim.Config{NurseryWords: 8 * 1024})
	m := rt.Mutator()
	f := m.PtrFrame("bench", 1)
	m.Call(f, func() {
		// A modest live list that every minor GC promotes/scans.
		for i := 0; i < 200; i++ {
			m.ConsInt(1, uint64(i), 1, 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Collect(false)
		}
	})
}

func benchName(workloadName string, k float64) string {
	switch k {
	case 1.5:
		return workloadName + "/k=1.5"
	case 2.0:
		return workloadName + "/k=2.0"
	default:
		return workloadName + "/k=4.0"
	}
}

func markerName(n int) string {
	switch n {
	case 5:
		return "n=5"
	case 25:
		return "n=25"
	default:
		return "n=100"
	}
}
