package harness

import (
	"strings"
	"sync"
	"testing"

	"tilgc/internal/workload"
)

// detConfigs is a small matrix that crosses collector kinds (including
// KindGenCards, whose barrier processing once depended on map iteration
// order) with budgets, for determinism checks.
func detConfigs() []RunConfig {
	return []RunConfig{
		{Workload: "Life", Scale: tiny, Kind: KindGenCards, K: 1.5},
		{Workload: "Life", Scale: tiny, Kind: KindGenerational, K: 2},
		{Workload: "Peg", Scale: tiny, Kind: KindGenCards, K: 2},
		{Workload: "Nqueen", Scale: tiny, Kind: KindGenMarkersPretenure, K: 2},
		{Workload: "Nqueen", Scale: tiny, Kind: KindSemispace, K: 4},
		{Workload: "Color", Scale: tiny, Kind: KindGenMarkers, K: 4},
		{Workload: "PhaseShift", Scale: tiny, Kind: KindGenerational, K: 2, Adapt: true},
	}
}

// sameResult asserts two runs of the same config measured identically,
// bit for bit.
func sameResult(t *testing.T, a, b *RunResult) {
	t.Helper()
	if a.Check != b.Check {
		t.Errorf("%s/%v: checksum %#x != %#x", a.Config.Workload, a.Config.Kind, a.Check, b.Check)
	}
	if a.Times != b.Times {
		t.Errorf("%s/%v: cost breakdown %+v != %+v", a.Config.Workload, a.Config.Kind, a.Times, b.Times)
	}
	if a.Stats != b.Stats {
		t.Errorf("%s/%v: GC stats %+v != %+v", a.Config.Workload, a.Config.Kind, a.Stats, b.Stats)
	}
	if a.Updates != b.Updates || a.MaxDepth != b.MaxDepth {
		t.Errorf("%s/%v: updates/depth %d/%d != %d/%d", a.Config.Workload, a.Config.Kind,
			a.Updates, a.MaxDepth, b.Updates, b.MaxDepth)
	}
}

// TestRunDeterministic runs every config twice and demands bit-identical
// measurements — DESIGN.md's reproducibility guarantee, and the property
// that makes parallel assembly safe.
func TestRunDeterministic(t *testing.T) {
	for _, cfg := range detConfigs() {
		first, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, first, second)
	}
}

// TestRunAllParallelMatchesSerial asserts the parallel runner assembles
// exactly the serial baseline, element for element, even with a cold
// calibration cache (so calibrations themselves race through the
// singleflight path).
func TestRunAllParallelMatchesSerial(t *testing.T) {
	cfgs := detConfigs()
	serial, err := RunAll(cfgs, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ClearCalibrationCache()
	parallel, err := RunAll(cfgs, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if parallel[i].Config != cfgs[i] {
			t.Errorf("slot %d holds config %+v, want input-order %+v", i, parallel[i].Config, cfgs[i])
		}
		sameResult(t, serial[i], parallel[i])
	}
}

// TestRunAllEvents checks the progress hook fires a serialized
// started/finished pair for every run with the measurements attached.
func TestRunAllEvents(t *testing.T) {
	cfgs := detConfigs()[:3]
	started := map[int]int{}
	finished := map[int]int{}
	inHook := false
	opts := Options{
		Parallelism: 4,
		Events: func(e Event) {
			if inHook {
				t.Error("event hook invoked concurrently")
			}
			inHook = true
			defer func() { inHook = false }()
			if e.Total != len(cfgs) {
				t.Errorf("event total %d, want %d", e.Total, len(cfgs))
			}
			switch e.Kind {
			case EventRunStarted:
				started[e.Index]++
			case EventRunFinished:
				finished[e.Index]++
				if e.Err != nil {
					t.Errorf("run %d failed: %v", e.Index, e.Err)
				}
				if e.GCs == 0 || e.TotalSec == 0 || e.MaxPauseSec == 0 {
					t.Errorf("run %d finished without measurements: %+v", e.Index, e)
				}
			}
		},
	}
	if _, err := RunAll(cfgs, opts); err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if started[i] != 1 || finished[i] != 1 {
			t.Errorf("run %d saw %d started / %d finished events, want 1/1",
				i, started[i], finished[i])
		}
	}
}

// TestRunAllError: a bad config fails its slot but the rest of the batch
// still runs, and the first input-order error is reported.
func TestRunAllError(t *testing.T) {
	cfgs := []RunConfig{
		{Workload: "Life", Scale: tiny, Kind: KindGenerational, K: 2},
		{Workload: "NoSuchBenchmark", Scale: tiny, Kind: KindGenerational, K: 2},
		{Workload: "Peg", Scale: tiny, Kind: KindGenerational, K: 2},
	}
	rs, err := RunAll(cfgs, Options{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "NoSuchBenchmark") {
		t.Fatalf("error = %v, want unknown-benchmark failure", err)
	}
	if rs[0] == nil || rs[2] == nil {
		t.Error("healthy runs were dropped alongside the failed one")
	}
	if rs[1] != nil {
		t.Error("failed run produced a result")
	}
}

// TestRunAllEmpty: a zero-length batch completes without spawning work.
func TestRunAllEmpty(t *testing.T) {
	rs, err := RunAll(nil, Options{})
	if err != nil || len(rs) != 0 {
		t.Fatalf("RunAll(nil) = %v, %v", rs, err)
	}
}

// TestCalibrateSingleflight hammers one cold key from many goroutines and
// requires every caller to observe the same calibration object.
func TestCalibrateSingleflight(t *testing.T) {
	ClearCalibrationCache()
	const goroutines = 8
	cals := make([]*calibration, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Calibrate("Life", tiny, 0)
			if err != nil {
				t.Error(err)
				return
			}
			cals[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if cals[i] != cals[0] {
			t.Fatalf("goroutine %d calibrated separately", i)
		}
	}
}

// TestPretenureCutoffIsThreaded: Calibrate's cutoff must actually reach
// policy derivation. A cutoff above 100 selects no sites (old% can't
// exceed 100); the paper's cutoff selects sites on Nqueen.
func TestPretenureCutoffIsThreaded(t *testing.T) {
	scale := workload.Scale{Repeat: 0.005}
	def, err := Calibrate("Nqueen", scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	if def.policy.Len() == 0 {
		t.Fatal("default cutoff selected no Nqueen sites")
	}
	none, err := Calibrate("Nqueen", scale, 101)
	if err != nil {
		t.Fatal(err)
	}
	if none.policy.Len() != 0 {
		t.Fatalf("cutoff 101 selected %d sites, want 0", none.policy.Len())
	}
}

// TestParallelTableIdenticalToSerial renders Table 5 serially and with 8
// workers and demands byte-identical output — the acceptance criterion
// behind `gcbench -table 5 -parallel 8`.
func TestParallelTableIdenticalToSerial(t *testing.T) {
	scale := workload.Scale{Repeat: 0.001, Depth: 0.15}
	var serial, parallel strings.Builder
	if err := Table5(&serial, scale, Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	ClearCalibrationCache()
	if err := Table5(&parallel, scale, Options{Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("parallel Table 5 differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}
