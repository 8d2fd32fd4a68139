package core

import (
	"slices"
	"testing"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/trace"
)

func TestParseOldCollector(t *testing.T) {
	cases := []struct {
		in   string
		want OldCollector
		ok   bool
	}{
		{"", OldCopy, true},
		{"copy", OldCopy, true},
		{"marksweep", OldMarkSweep, true},
		{"markcompact", OldMarkCompact, true},
		{"scavenge", OldCopy, false},
	}
	for _, tc := range cases {
		got, ok := ParseOldCollector(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseOldCollector(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	for _, oc := range []OldCollector{OldCopy, OldMarkSweep, OldMarkCompact} {
		back, ok := ParseOldCollector(oc.String())
		if !ok || back != oc {
			t.Errorf("round trip %v -> %q -> %v, %v", oc, oc.String(), back, ok)
		}
	}
}

// clientView is everything a mutator program can observe about its own
// execution: the cycles charged to its bucket, its allocation statistics,
// and the pointer-free contents of the structures it kept alive. GC
// collection counts, pauses, and copy/mark/sweep volumes are excluded —
// those legitimately differ across old-generation collectors (the
// non-moving collectors run with a larger tenured budget because they
// need no reserve semispace).
type clientView struct {
	client costmodel.Cycles
	bytes  uint64
	objs   uint64
	rec    uint64
	arr    uint64
	pret   uint64
	vals   []uint64
}

// oldgenClientView runs the kernel workload under the given old-generation
// collector and captures the client-observable outcome.
func oldgenClientView(t *testing.T, oc OldCollector, extra func(*Config)) clientView {
	t.Helper()
	e := newEnv(4)
	cfg := Config{BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, OldCollector: oc}
	if extra != nil {
		extra(&cfg)
	}
	c := newGen(e, cfg)
	driveKernelWorkload(t, c, e)
	st := c.Stats()
	v := clientView{
		client: e.meter.Snapshot().Client,
		bytes:  st.BytesAllocated,
		objs:   st.ObjectsAllocated,
		rec:    st.RecordBytes,
		arr:    st.ArrayBytes,
		pret:   st.Pretenured,
	}
	for a := mem.Addr(e.stack.Slot(1)); !a.IsNil(); a = mem.Addr(c.LoadField(a, 1)) {
		v.vals = append(v.vals, c.LoadField(a, 0))
	}
	return v
}

// TestOldCollectorClientDifferential is the cross-collector oracle: the
// same mutator program must be client-indistinguishable under the
// copying, mark-sweep, and mark-compact old generations — identical
// client cycle counts, identical allocation statistics, and identical
// surviving data.
func TestOldCollectorClientDifferential(t *testing.T) {
	variants := []struct {
		name  string
		extra func(*Config)
	}{
		{"plain", nil},
		{"markers+pretenure", func(cfg *Config) {
			cfg.MarkerN = 5
			cfg.Pretenure = NewPretenurePolicy(map[obj.SiteID]PretenureDecision{
				12: {},
				50: {OnlyOldRefs: true},
			})
		}},
		{"aging", func(cfg *Config) { cfg.AgingMinors = 2 }},
		{"workers", func(cfg *Config) { cfg.GCWorkers = 3 }},
	}
	for _, vr := range variants {
		t.Run(vr.name, func(t *testing.T) {
			base := oldgenClientView(t, OldCopy, vr.extra)
			for _, oc := range []OldCollector{OldMarkSweep, OldMarkCompact} {
				got := oldgenClientView(t, oc, vr.extra)
				if got.client != base.client {
					t.Errorf("%v: client cycles = %d, copy = %d", oc, got.client, base.client)
				}
				if got.bytes != base.bytes || got.objs != base.objs ||
					got.rec != base.rec || got.arr != base.arr || got.pret != base.pret {
					t.Errorf("%v: alloc stats diverge from copy:\n got  %+v\n copy %+v", oc, got, base)
				}
				if !slices.Equal(got.vals, base.vals) {
					t.Errorf("%v: surviving list contents diverge from copy", oc)
				}
			}
		})
	}
}

// TestNonmovingEliminatesOldCopying pins the headline property: the
// copying old generation re-copies tenured data at every major while the
// non-moving collectors drive old-generation copying to zero, reclaiming
// in place (mark-sweep) or sliding (mark-compact) instead.
func TestNonmovingEliminatesOldCopying(t *testing.T) {
	run := func(oc OldCollector) GCStats {
		e := newEnv(4)
		c := newGen(e, Config{BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, OldCollector: oc})
		driveKernelWorkload(t, c, e)
		return *c.Stats()
	}

	cp := run(OldCopy)
	if cp.OldBytesCopied == 0 {
		t.Error("copy: OldBytesCopied = 0, want > 0 (majors must evacuate the old generation)")
	}
	if cp.WordsMarked != 0 || cp.WordsSwept != 0 || cp.WordsSlid != 0 {
		t.Errorf("copy: non-moving counters nonzero: marked=%d swept=%d slid=%d",
			cp.WordsMarked, cp.WordsSwept, cp.WordsSlid)
	}

	ms := run(OldMarkSweep)
	if ms.OldBytesCopied != 0 {
		t.Errorf("marksweep: OldBytesCopied = %d, want 0", ms.OldBytesCopied)
	}
	if ms.ObjectsMarked == 0 || ms.WordsMarked == 0 {
		t.Errorf("marksweep: nothing marked (objects=%d words=%d)", ms.ObjectsMarked, ms.WordsMarked)
	}
	if ms.WordsSwept == 0 {
		t.Error("marksweep: WordsSwept = 0, want > 0 (dead tenured arrays must be reclaimed)")
	}
	if ms.WordsSlid != 0 {
		t.Errorf("marksweep: WordsSlid = %d, want 0", ms.WordsSlid)
	}

	mc := run(OldMarkCompact)
	if mc.OldBytesCopied != 0 {
		t.Errorf("markcompact: OldBytesCopied = %d, want 0", mc.OldBytesCopied)
	}
	if mc.ObjectsMarked == 0 || mc.WordsMarked == 0 {
		t.Errorf("markcompact: nothing marked (objects=%d words=%d)", mc.ObjectsMarked, mc.WordsMarked)
	}
	if mc.WordsSlid == 0 {
		t.Error("markcompact: WordsSlid = 0, want > 0 (live data above holes must slide down)")
	}
	if mc.WordsSwept != 0 {
		t.Errorf("markcompact: WordsSwept = %d, want 0 (compaction leaves no free runs)", mc.WordsSwept)
	}
}

// tenuredGarbageCycle tenures a list, drops it, and forces a major: the
// non-moving old generation is left holding reclaimable space.
func tenuredGarbageCycle(t *testing.T, c *Generational, e *testEnv) {
	t.Helper()
	consList(t, c, e, 1, 400, 3)
	c.Collect(true) // tenure the list
	consList(t, c, e, 2, 100, 3)
	c.Collect(true) // tenure the survivor; slot-1 list still live
	e.stack.SetSlot(1, uint64(mem.Nil))
	c.Collect(true) // slot-1 list dies in the old generation
}

// TestMarkSweepFreeListReuse proves in-place reclamation round-trips:
// a dead tenured list becomes free spans, and subsequent pretenured
// allocation is served from those spans without moving the frontier.
func TestMarkSweepFreeListReuse(t *testing.T) {
	e := newEnv(4)
	pol := NewPretenurePolicy(map[obj.SiteID]PretenureDecision{12: {}})
	c := newGen(e, Config{
		BudgetWords: 64 * 1024, NurseryWords: 4 * 1024,
		OldCollector: OldMarkSweep, Pretenure: pol,
	})
	tenuredGarbageCycle(t, c, e)

	in := c.Inspect()
	if in.OldCollector != OldMarkSweep {
		t.Fatalf("Inspect().OldCollector = %v", in.OldCollector)
	}
	if in.OldFreeWords == 0 || len(in.OldFreeSpans) == 0 {
		t.Fatalf("no free spans after sweeping a dead tenured list (freeWords=%d, spans=%d)",
			in.OldFreeWords, len(in.OldFreeSpans))
	}
	var sum uint64
	for _, s := range in.OldFreeSpans {
		sum += s.Size
	}
	if sum != in.OldFreeWords {
		t.Fatalf("free spans sum to %d words, counter says %d", sum, in.OldFreeWords)
	}
	if !in.OldMarksFresh {
		t.Error("OldMarksFresh = false immediately after a major with no mutator activity")
	}

	frontier := c.heap.Space(c.ten.ID()).Used()
	before := c.old.freeWords
	a := c.Alloc(obj.Record, 2, 12, 0b10) // pretenured via the policy
	if a.Space() != c.ten.ID() {
		t.Fatalf("pretenured allocation landed in space %d, want tenured %d", a.Space(), c.ten.ID())
	}
	if c.old.freeWords >= before {
		t.Errorf("free list not consumed: freeWords %d -> %d", before, c.old.freeWords)
	}
	if got := c.heap.Space(c.ten.ID()).Used(); got != frontier {
		t.Errorf("bump frontier moved %d -> %d; pretenure should reuse a free span", frontier, got)
	}
	if c.old.marksFresh {
		t.Error("marksFresh survived a mutator allocation")
	}
}

// TestMarkCompactLeavesNoHoles proves the slide achieves perfect density:
// after a major, the old generation has no free spans and the frontier
// equals the live volume.
func TestMarkCompactLeavesNoHoles(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, Config{
		BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, OldCollector: OldMarkCompact,
	})
	tenuredGarbageCycle(t, c, e)
	if c.Stats().WordsSlid == 0 {
		t.Fatal("WordsSlid = 0: the surviving list should have slid over the dead one")
	}
	in := c.Inspect()
	if in.OldFreeWords != 0 || len(in.OldFreeSpans) != 0 {
		t.Errorf("compacted old generation has free spans (freeWords=%d, spans=%d)",
			in.OldFreeWords, len(in.OldFreeSpans))
	}
	if live, used := c.tenLive(), c.heap.Space(c.ten.ID()).Used(); live != used {
		t.Errorf("tenLive = %d, frontier = %d; compaction should make them equal", live, used)
	}
	checkConsList(t, c, e, 2, 100)
}

// TestNonmovingTraceReconciles attaches a trace recorder and checks that
// every cycle charged during non-moving majors is tiled by phase spans
// and worker quanta (trace.Reconcile), and that the new mark, sweep, and
// compact phases actually appear in the event stream.
func TestNonmovingTraceReconciles(t *testing.T) {
	type tc struct {
		oc      OldCollector
		workers int
	}
	var cases []tc
	for _, oc := range []OldCollector{OldMarkSweep, OldMarkCompact} {
		for _, w := range []int{1, 2, 3} {
			cases = append(cases, tc{oc, w})
		}
	}
	for _, c := range cases {
		t.Run(c.oc.String()+"/w"+string(rune('0'+c.workers)), func(t *testing.T) {
			e := newEnv(4)
			rec := trace.NewRecorder(e.meter)
			g := newGen(e, Config{
				BudgetWords: 64 * 1024, NurseryWords: 4 * 1024,
				OldCollector: c.oc, GCWorkers: c.workers, Trace: rec,
			})
			driveKernelWorkload(t, g, e)
			rec.Finish()
			if err := rec.VerifyReconciled(); err != nil {
				t.Fatalf("trace does not reconcile: %v", err)
			}
			seen := map[trace.Phase]bool{}
			for _, ev := range rec.Events() {
				if ev.Kind == trace.EvPhaseBegin {
					seen[ev.Phase] = true
				}
			}
			if !seen[trace.PhaseMark] {
				t.Error("no mark phase span recorded")
			}
			switch c.oc {
			case OldMarkSweep:
				if !seen[trace.PhaseSweep] {
					t.Error("no sweep phase span recorded")
				}
			case OldMarkCompact:
				if !seen[trace.PhaseCompact] {
					t.Error("no compact phase span recorded")
				}
			}
		})
	}
}

// TestNonmovingParallelMatchesSerial pins W-independence for the new
// kernels: parallel copying plus non-moving majors must leave the same
// heap image and stats as the serial collector.
func TestNonmovingParallelMatchesSerial(t *testing.T) {
	for _, oc := range []OldCollector{OldMarkSweep, OldMarkCompact} {
		t.Run(oc.String(), func(t *testing.T) {
			run := func(w int) ([]uint64, GCStats) {
				e := newEnv(4)
				c := newGen(e, Config{
					BudgetWords: 64 * 1024, NurseryWords: 4 * 1024,
					OldCollector: oc, GCWorkers: w,
				})
				driveKernelWorkload(t, c, e)
				c.Collect(true)
				return heapImage(c), *c.Stats()
			}
			serImg, serStats := run(1)
			parImg, parStats := run(3)
			if parStats.ParallelQuanta == 0 || parStats.WorkSteals == 0 {
				t.Errorf("quanta=%d steals=%d; worker accounting never engaged",
					parStats.ParallelQuanta, parStats.WorkSteals)
			}
			if parStats.MaxPauseCycles > serStats.MaxPauseCycles {
				t.Errorf("parallel max pause %d exceeds serial %d",
					parStats.MaxPauseCycles, serStats.MaxPauseCycles)
			}
			// Pause and worker-tally fields legitimately move with W; every
			// schedule- and heap-shape field must not.
			mask := func(st GCStats) GCStats {
				st.MaxPauseCycles, st.SumPauseCycles = 0, 0
				st.ParallelQuanta, st.WorkSteals = 0, 0
				return st
			}
			if mask(serStats) != mask(parStats) {
				t.Errorf("stats diverge:\n serial %+v\n parallel %+v", serStats, parStats)
			}
			if !slices.Equal(serImg, parImg) {
				t.Error("heap images diverge between serial and parallel runs")
			}
		})
	}
}
