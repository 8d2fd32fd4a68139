package prof

import (
	"strings"
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

func TestSiteStatsMath(t *testing.T) {
	s := SiteStats{AllocBytes: 1000, AllocCount: 10, CopiedBytes: 500,
		SurvivedFirst: 4, Deaths: 5, SumDeathAgeKB: 50}
	if s.OldPct() != 40 {
		t.Errorf("OldPct = %g", s.OldPct())
	}
	if s.AvgAgeKB() != 10 {
		t.Errorf("AvgAgeKB = %g", s.AvgAgeKB())
	}
	if s.CopyRatio() != 0.5 {
		t.Errorf("CopyRatio = %g", s.CopyRatio())
	}
	var zero SiteStats
	if zero.OldPct() != 0 || zero.AvgAgeKB() != 0 || zero.CopyRatio() != 0 {
		t.Error("zero-stats accessors must return 0")
	}
}

func TestProfilerAllocMoveDeath(t *testing.T) {
	p := New(nil)
	a := mem.MakeAddr(1, 10)
	b := mem.MakeAddr(1, 20)
	p.OnAlloc(a, 5, obj.Record, 4, false) // 32 bytes
	p.OnAlloc(b, 5, obj.Record, 2, false) // 16 bytes
	p.OnMove(a, mem.MakeAddr(2, 1))       // a survives, copied
	p.OnSpaceCondemned(1)                 // b dies
	p.OnGCEnd()

	s := p.sites[5]
	if s.AllocBytes != 48 || s.AllocCount != 2 {
		t.Fatalf("alloc stats: %+v", s)
	}
	if s.CopiedBytes != 32 || s.SurvivedFirst != 1 {
		t.Fatalf("copy stats: %+v", s)
	}
	if s.Deaths != 1 {
		t.Fatalf("death stats: %+v", s)
	}
	if s.OldPct() != 50 {
		t.Fatalf("OldPct = %g", s.OldPct())
	}

	// Second move of the same object: more copying, but SurvivedFirst
	// stays (first survival already counted).
	p.OnMove(mem.MakeAddr(2, 1), mem.MakeAddr(3, 1))
	p.OnGCEnd()
	if s.CopiedBytes != 64 || s.SurvivedFirst != 1 {
		t.Fatalf("second copy stats: %+v", s)
	}
}

func TestProfilerAgeAccounting(t *testing.T) {
	p := New(nil)
	a := mem.MakeAddr(1, 1)
	p.OnAlloc(a, 1, obj.Record, 128, false) // 1KB; clock now 1KB
	// 9KB more allocation from another site.
	p.OnAlloc(mem.MakeAddr(1, 200), 2, obj.RawArray, 128*9, false)
	p.OnSpaceCondemned(1) // both die; a's age = 9KB, other's age = 0
	s := p.sites[1]
	if s.Deaths != 1 || s.AvgAgeKB() != 9 {
		t.Fatalf("age: deaths=%d avg=%g", s.Deaths, s.AvgAgeKB())
	}
	if p.sites[2].AvgAgeKB() != 0 {
		t.Fatalf("fresh object age = %g", p.sites[2].AvgAgeKB())
	}
}

func TestProfilerFinalize(t *testing.T) {
	p := New(nil)
	p.OnAlloc(mem.MakeAddr(1, 1), 1, obj.Record, 10, false)
	p.Finalize()
	if p.sites[1].Deaths != 1 {
		t.Fatal("finalize did not record survivor death")
	}
	// Idempotent.
	p.Finalize()
	if p.sites[1].Deaths != 1 {
		t.Fatal("finalize double-counted")
	}
}

func TestPolicyCutoff(t *testing.T) {
	p := New(nil)
	// Site 1: 10 objects, all survive. Site 2: 10 objects, none survive.
	// Site 3: only 2 objects (below min), all survive.
	for i := 0; i < 10; i++ {
		a := mem.MakeAddr(1, uint64(1+i*10))
		p.OnAlloc(a, 1, obj.Record, 2, false)
		p.OnMove(a, mem.MakeAddr(2, uint64(1+i*10)))
		p.OnGCEnd()
	}
	for i := 0; i < 10; i++ {
		p.OnAlloc(mem.MakeAddr(3, uint64(1+i*10)), 2, obj.Record, 2, false)
	}
	p.OnSpaceCondemned(3)
	for i := 0; i < 2; i++ {
		a := mem.MakeAddr(4, uint64(1+i*10))
		p.OnAlloc(a, 3, obj.Record, 2, false)
		p.OnMove(a, mem.MakeAddr(5, uint64(1+i*10)))
		p.OnGCEnd()
	}
	pol := p.Policy(80, 5)
	if _, ok := pol.Lookup(1); !ok {
		t.Error("high-survival site not pretenured")
	}
	if _, ok := pol.Lookup(2); ok {
		t.Error("zero-survival site pretenured")
	}
	if _, ok := pol.Lookup(3); ok {
		t.Error("low-count site pretenured despite minObjects")
	}
	if pol.Len() != 1 {
		t.Errorf("policy has %d sites", pol.Len())
	}
}

func TestCutoffSummary(t *testing.T) {
	p := New(nil)
	*p.site(1) = SiteStats{Site: 1, AllocBytes: 100, AllocCount: 10,
		SurvivedFirst: 10, CopiedBytes: 900}
	*p.site(2) = SiteStats{Site: 2, AllocBytes: 900, AllocCount: 90,
		SurvivedFirst: 0, CopiedBytes: 100}
	copied, alloc := p.CutoffSummary(80)
	if copied != 90 || alloc != 10 {
		t.Fatalf("summary = %g%% copied, %g%% allocated", copied, alloc)
	}
}

func TestWriteReportFormat(t *testing.T) {
	p := New(map[obj.SiteID]string{7: "cons"})
	for i := 0; i < 100; i++ {
		a := mem.MakeAddr(1, uint64(1+i*4))
		p.OnAlloc(a, 7, obj.Record, 4, false)
		p.OnMove(a, mem.MakeAddr(2, uint64(1+i*4)))
		p.OnGCEnd()
	}
	var sb strings.Builder
	p.WriteReport(&sb, DefaultReportOptions("TestBench"))
	out := sb.String()
	for _, want := range []string{
		"TestBench", "heap profile end", "cutoff of 80%",
		"targeted sites comprise", "<--",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestProfilerDrivesPretenuringEndToEnd runs a real collector with the
// profiler attached, derives a policy, and re-runs with pretenuring: the
// long-lived site must be selected and copying must drop.
func TestProfilerDrivesPretenuringEndToEnd(t *testing.T) {
	const liveSite, dieSite = 11, 12
	run := func(prof core.Profiler, pol *core.PretenurePolicy) (*core.Generational, *Profiler) {
		table := rt.NewTraceTable()
		meter := costmodel.NewMeter()
		stack := rt.NewStack(table, meter)
		slots := []rt.SlotTrace{rt.NP(), rt.PTR()}
		fi := table.Register("root", slots, nil)
		stack.Call(fi)
		c := core.NewGenerational(stack, meter, prof, core.Config{
			BudgetWords: 1 << 20, NurseryWords: 512, Pretenure: pol,
		})
		// Long-lived list from liveSite, garbage from dieSite.
		stack.SetSlot(1, uint64(mem.Nil))
		for i := 0; i < 3000; i++ {
			cell := c.Alloc(obj.Record, 2, liveSite, 0b10)
			c.InitField(cell, 1, stack.Slot(1))
			stack.SetSlot(1, uint64(cell))
			c.Alloc(obj.Record, 2, dieSite, 0)
			c.Alloc(obj.Record, 2, dieSite, 0)
		}
		c.Collect(false)
		pp, _ := prof.(*Profiler)
		return c, pp
	}

	profiler := New(nil)
	_, pp := run(profiler, nil)
	pp.Finalize()
	if pp.sites[liveSite].OldPct() < 80 {
		t.Fatalf("live site old%% = %g", pp.sites[liveSite].OldPct())
	}
	if pp.sites[dieSite].OldPct() > 20 {
		t.Fatalf("dying site old%% = %g", pp.sites[dieSite].OldPct())
	}
	pol := pp.Policy(80, 10)
	if _, ok := pol.Lookup(liveSite); !ok {
		t.Fatal("policy missed the long-lived site")
	}

	base, _ := run(nil, nil)
	pre, _ := run(nil, pol)
	if pre.Stats().BytesCopied*2 > base.Stats().BytesCopied {
		t.Fatalf("profile-driven pretenuring did not cut copying: %d vs %d",
			pre.Stats().BytesCopied, base.Stats().BytesCopied)
	}
}

func TestOnLOSDeadAndClock(t *testing.T) {
	p := New(nil)
	a := mem.MakeAddr(9, 1)
	p.OnAlloc(a, 4, obj.RawArray, 100, false)
	if p.Clock() != 800 {
		t.Fatalf("Clock = %d", p.Clock())
	}
	p.OnLOSDead(a)
	if p.sites[4].Deaths != 1 {
		t.Fatal("LOS death not recorded")
	}
	// Unknown address: no-op.
	p.OnLOSDead(mem.MakeAddr(9, 500))
	if p.sites[4].Deaths != 1 {
		t.Fatal("phantom death recorded")
	}
	// Condemning a space with no table is a no-op.
	p.OnSpaceCondemned(77)
}

func TestSitesSortedByAllocation(t *testing.T) {
	p := New(nil)
	p.OnAlloc(mem.MakeAddr(1, 1), 5, obj.Record, 10, false)
	p.OnAlloc(mem.MakeAddr(1, 50), 6, obj.Record, 100, false)
	p.OnAlloc(mem.MakeAddr(1, 200), 7, obj.Record, 100, false)
	sites := p.Sites()
	if len(sites) != 3 {
		t.Fatalf("Sites len = %d", len(sites))
	}
	if sites[0].AllocBytes < sites[1].AllocBytes {
		t.Fatal("not sorted by allocation")
	}
	// Equal allocations tie-break by site id.
	if sites[0].Site != 6 || sites[1].Site != 7 {
		t.Fatalf("tie break wrong: %d, %d", sites[0].Site, sites[1].Site)
	}
}

func TestMoveOfUntrackedObject(t *testing.T) {
	p := New(nil)
	// Moving an object the profiler never saw must be ignored.
	p.OnMove(mem.MakeAddr(1, 7), mem.MakeAddr(2, 7))
	p.OnGCEnd()
	if len(p.sites) != 0 {
		t.Fatal("phantom site created")
	}
}

// TestDeathOnlySiteInReport: a site with deaths but zero recorded
// allocations (its stats were seeded from another run, or its objects
// predate profiling) contributes 0% to the allocation and copy shares, so
// the report's percentage filter would silently drop it — yet its garbage
// is exactly what a mistrain report needs to surface. It must render,
// without dividing by zero.
func TestDeathOnlySiteInReport(t *testing.T) {
	p := New(map[obj.SiteID]string{42: "seeded sink"})
	// A normal site so the report has nonzero totals.
	for i := 0; i < 100; i++ {
		p.OnAlloc(mem.MakeAddr(1, uint64(1+i*4)), 7, obj.Record, 4, false)
	}
	// The death-only site, seeded directly as a warm-started run would.
	*p.site(42) = SiteStats{Site: 42, Name: "seeded sink", Deaths: 3, SumDeathAgeKB: 1.5}

	s := p.sites[42]
	if got := s.OldPct(); got != 0 {
		t.Errorf("OldPct = %g, want 0", got)
	}
	if got := s.CopyRatio(); got != 0 {
		t.Errorf("CopyRatio = %g, want 0", got)
	}
	if got := s.AvgAgeKB(); got != 0.5 {
		t.Errorf("AvgAgeKB = %g, want 0.5", got)
	}

	var sb strings.Builder
	p.WriteReport(&sb, DefaultReportOptions("DeathOnly"))
	out := sb.String()
	if !strings.Contains(out, "42") {
		t.Fatalf("death-only site vanished from the report:\n%s", out)
	}
	for _, bad := range []string{"NaN", "Inf", "nan", "inf"} {
		if strings.Contains(out, bad) {
			t.Fatalf("report contains %s:\n%s", bad, out)
		}
	}
}

// profilerCycle drives one collection's worth of profiler traffic the way
// a semispace-style collector does: n allocations into the nursery (space
// 1), every other one of the old objects in from (packed at offsets
// 1, 5, 9, ...) and every third nursery object moved into to, both source
// spaces condemned, then the collection boundary. It returns the number
// of objects now in to, the old count of the next cycle with the spaces
// swapped.
func profilerCycle(p *Profiler, n, old uint64, from, to mem.SpaceID) uint64 {
	for i := uint64(0); i < n; i++ {
		p.OnAlloc(mem.MakeAddr(1, 1+4*i), obj.SiteID(1+i%7), obj.Record, 4, i%11 == 0)
	}
	var moved uint64
	for i := uint64(0); i < old; i += 2 {
		p.OnMove(mem.MakeAddr(from, 1+4*i), mem.MakeAddr(to, 1+4*moved))
		moved++
	}
	for i := uint64(0); i < n; i += 3 {
		p.OnMove(mem.MakeAddr(1, 1+4*i), mem.MakeAddr(to, 1+4*moved))
		moved++
	}
	p.OnSpaceCondemned(1)
	p.OnSpaceCondemned(from)
	p.OnGCEnd()
	return moved
}

// TestProfilerCycleAllocatesNothing: once its tables have grown to the
// working set, the profiler's allocate → move → condemn → OnGCEnd cycle
// makes no Go allocation — every table is a reused slice, and no map is
// touched.
func TestProfilerCycleAllocatesNothing(t *testing.T) {
	p := New(nil)
	var old uint64
	cycle := func() {
		old = profilerCycle(p, 512, old, 2, 3)
		old = profilerCycle(p, 512, old, 3, 2)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm profiler cycle made %g Go allocations, want 0", allocs)
	}
	p.Finalize()
	if p.spaces != nil {
		t.Fatal("Finalize kept the record tables")
	}
	var allocated, died uint64
	for _, s := range p.Sites() {
		allocated += s.AllocCount
		died += s.Deaths
	}
	if allocated == 0 || died != allocated {
		t.Fatalf("%d deaths for %d allocations", died, allocated)
	}
}

// BenchmarkProfilerCycle measures one profiler cycle of 4096 allocations
// (see profilerCycle); ns/op divided by 4096 is the per-object cost.
func BenchmarkProfilerCycle(b *testing.B) {
	p := New(nil)
	var old uint64
	spaces := [2]mem.SpaceID{2, 3}
	for i := 0; i < 8; i++ {
		old = profilerCycle(p, 4096, old, spaces[i%2], spaces[1-i%2])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old = profilerCycle(p, 4096, old, spaces[i%2], spaces[1-i%2])
	}
}
