package harness

import (
	"bytes"
	"fmt"
	"testing"

	"tilgc/internal/adapt"
	"tilgc/internal/slo"
	"tilgc/internal/trace"
	"tilgc/internal/workload"
)

// gridTW is the thread/worker axis of the determinism grid: serial, and
// the two sharded configurations the acceptance gates compare.
var gridTW = []int{1, 2, 4}

// gridConfig is one cell of the T×W grid: the steady server mix (the one
// workload family that actually schedules requests across threads) under
// gen+markers with the online advisor attached, traced so the cell's
// trace stream, SLO report, and adapt profile can all be compared
// byte-for-byte.
func gridConfig(threads, workers int) RunConfig {
	return RunConfig{
		Workload:  "ServerSteady",
		Scale:     workload.Scale{Repeat: 0.004},
		Kind:      KindGenMarkers,
		K:         2,
		Adapt:     true,
		Threads:   threads,
		GCWorkers: workers,
		Trace:     true,
	}
}

// sloJSONL renders a traced run's JSONL SLO report bytes.
func sloJSONL(t *testing.T, r *RunResult) []byte {
	t.Helper()
	f := trace.NewFile(r.Trace.Data(r.Config.Label()))
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := slo.ComputeFile(f, slo.DefaultWindows)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// adaptJSONL renders a run's adapt profile as profile-store bytes.
func adaptJSONL(t *testing.T, r *RunResult) []byte {
	t.Helper()
	if r.AdaptProfile == nil {
		t.Fatalf("%s: no adapt profile", r.Config.Label())
	}
	var buf bytes.Buffer
	s := adapt.Store{Profiles: []*adapt.RunProfile{r.AdaptProfile}}
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTWGridDeterministic runs every cell of the T∈{1,2,4} × W∈{1,2,4}
// grid twice and demands the two runs agree byte-for-byte on every
// artifact: measurements, the full JSONL trace stream, the derived SLO
// report, and the adapt profile-store bytes. It then checks the two
// structural identities of the parallel design against the W=1 column:
//
//   - Worker invariance: for a fixed thread count, the heap schedule is
//     identical at every W — checksum, mutator cycles, GC counts, roots,
//     and barrier work do not move; only pause accounting does.
//   - Cost conservation: wall GC cycles plus the overlap credited back by
//     the worker tallies equals the serial run's GC cycles exactly, and
//     pause ceilings never rise with more workers.
func TestTWGridDeterministic(t *testing.T) {
	results := map[[2]int]*RunResult{}
	for _, T := range gridTW {
		for _, W := range gridTW {
			name := fmt.Sprintf("T=%d/W=%d", T, W)
			cfg := gridConfig(T, W)
			a, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameResult(t, a, b)
			if !bytes.Equal(runJSONL(t, a), runJSONL(t, b)) {
				t.Errorf("%s: JSONL traces differ between identical runs", name)
			}
			if !bytes.Equal(sloJSONL(t, a), sloJSONL(t, b)) {
				t.Errorf("%s: SLO reports differ between identical runs", name)
			}
			if !bytes.Equal(adaptJSONL(t, a), adaptJSONL(t, b)) {
				t.Errorf("%s: adapt store bytes differ between identical runs", name)
			}
			results[[2]int{T, W}] = a
		}
	}

	for _, T := range gridTW {
		serial := results[[2]int{T, 1}]
		serialOverlap := serial.Trace.Data(serial.Config.Label()).Overlap
		if serialOverlap != 0 {
			t.Errorf("T=%d/W=1: serial run reports overlap %d, want 0", T, serialOverlap)
		}
		for _, W := range gridTW[1:] {
			name := fmt.Sprintf("T=%d/W=%d", T, W)
			par := results[[2]int{T, W}]
			if par.Check != serial.Check {
				t.Errorf("%s: checksum %#x != W=1's %#x — heap schedule moved with workers",
					name, par.Check, serial.Check)
			}
			if par.Times.Client != serial.Times.Client || par.Times.Adapt != serial.Times.Adapt {
				t.Errorf("%s: mutator/advisor cycles moved with workers: %+v vs %+v",
					name, par.Times, serial.Times)
			}
			ps, ss := par.Stats, serial.Stats
			if ps.NumGC != ss.NumGC || ps.NumMajor != ss.NumMajor ||
				ps.RootsFound != ss.RootsFound || ps.SSBProcessed != ss.SSBProcessed ||
				ps.MaxLiveBytes != ss.MaxLiveBytes || par.Updates != serial.Updates {
				t.Errorf("%s: GC schedule moved with workers:\n  W=%d: %+v\n  W=1: %+v",
					name, W, ps, ss)
			}
			overlap := par.Trace.Data(par.Config.Label()).Overlap
			if got, want := par.Times.GC()+overlap, serial.Times.GC(); got != want {
				t.Errorf("%s: wall GC %d + overlap %d = %d, want serial GC %d — cycles leaked",
					name, par.Times.GC(), overlap, got, want)
			}
			if overlap == 0 {
				t.Errorf("%s: no overlap credited; the parallel phases never sharded", name)
			}
			if ps.MaxPauseCycles > ss.MaxPauseCycles {
				t.Errorf("%s: max pause %d exceeds serial %d", name, ps.MaxPauseCycles, ss.MaxPauseCycles)
			}
			if ps.ParallelQuanta == 0 || ps.WorkSteals == 0 {
				t.Errorf("%s: quanta=%d steals=%d; worker accounting never engaged",
					name, ps.ParallelQuanta, ps.WorkSteals)
			}
		}
	}
}

// TestTWGridSpecialCase: Threads and GCWorkers 0 and 1 name the same
// runtime — the primary thread alone under the serial collector — so the
// explicit T=1/W=1 config and the zero-value one give the same results
// and byte-identical traces.
func TestTWGridSpecialCase(t *testing.T) {
	explicit := gridConfig(1, 1)
	zero := explicit
	zero.Threads, zero.GCWorkers = 0, 0
	a, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(zero)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, a, b)
	if !bytes.Equal(runJSONL(t, a), runJSONL(t, b)) {
		t.Error("T=1/W=1 trace differs from the zero-value config")
	}
}

// TestDeferMajorMovesPauseBoundariesOnly: deferring over-threshold majors
// must not change what the program computes — only when the collector
// stops the world. The deferred run performs its majors as separate
// pauses (more, shorter stops), so its worst pause is strictly smaller
// on a workload whose majors otherwise escalate out of minors.
func TestDeferMajorMovesPauseBoundariesOnly(t *testing.T) {
	cfg := RunConfig{
		Workload: "ServerSteady", Scale: workload.Scale{Repeat: 0.01},
		Kind: KindGenMarkers, K: 2,
	}
	esc, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DeferMajor = true
	def, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if esc.Check != def.Check {
		t.Errorf("checksum moved with pause policy: %#x vs %#x", esc.Check, def.Check)
	}
	if esc.Times.Client != def.Times.Client {
		t.Errorf("mutator cycles moved with pause policy: %d vs %d",
			esc.Times.Client, def.Times.Client)
	}
	if esc.Stats.NumMajor == 0 {
		t.Fatal("baseline run performed no majors; the fixture is vacuous")
	}
	if def.Stats.NumMajor == 0 {
		t.Error("deferred run performed no majors")
	}
	if def.Stats.MaxPauseCycles >= esc.Stats.MaxPauseCycles {
		t.Errorf("deferred max pause %d did not drop below escalated %d",
			def.Stats.MaxPauseCycles, esc.Stats.MaxPauseCycles)
	}
}
