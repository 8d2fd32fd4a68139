// Package tilgc's root benchmarks: the parallel experiment runner over
// the Table 7 sweep, and microbenchmarks of the raw simulator. Reported
// ns/op measures the simulator itself; BenchmarkRunAllSweep also reports
// the *simulated* metrics of its last run as custom benchmark metrics:
//
//	sim-gc-sec      simulated collector seconds per run
//	sim-client-sec  simulated mutator seconds per run
//	sim-copied-MB   megabytes copied per run
//	sim-numgc       collections per run
//
// The tables and figures themselves are pinned by gcsim's
// TestExperimentsGolden, and host time by the hostbench module.
package tilgc_test

import (
	"testing"

	"tilgc/gcsim"
	"tilgc/internal/harness"
	"tilgc/internal/workload"
)

// benchScale keeps a Table 7 sweep in the seconds range while preserving
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
