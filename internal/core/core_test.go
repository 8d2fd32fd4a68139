package core

import (
	"slices"
	"testing"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// testEnv bundles a stack with a root frame exposing nRoots pointer slots
// (slots 1..nRoots) for tests to park object references in.
type testEnv struct {
	table *rt.TraceTable
	meter *costmodel.Meter
	stack *rt.Stack
	root  *rt.FrameInfo
}

func newEnv(nRoots int) *testEnv {
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	slots := make([]rt.SlotTrace, nRoots+1)
	for i := 1; i <= nRoots; i++ {
		slots[i] = rt.PTR()
	}
	root := table.Register("testroot", slots, nil)
	stack.Call(root)
	return &testEnv{table: table, meter: meter, stack: stack, root: root}
}

// dummyFrame registers an all-non-pointer frame layout of the given size.
func (e *testEnv) dummyFrame(size int) *rt.FrameInfo {
	return e.table.Register("dummy", make([]rt.SlotTrace, size), nil)
}

// consList builds a list of n cons cells (record: [value, next]) in c,
// keeping the head in root slot `slot` at all times so collections mid-build
// are safe. Values are n-1 down to 0 from head to tail.
func consList(t testing.TB, c Collector, e *testEnv, slot int, n int, site obj.SiteID) {
	t.Helper()
	e.stack.SetSlot(slot, uint64(mem.Nil))
	for i := 0; i < n; i++ {
		cell := c.Alloc(obj.Record, 2, site, 0b10) // field 0 value, field 1 next-ptr
		c.InitField(cell, 0, uint64(i))
		c.InitField(cell, 1, e.stack.Slot(slot))
		e.stack.SetSlot(slot, uint64(cell))
	}
}

// checkConsList verifies the list rooted at slot contains n cells with
// values n-1..0.
func checkConsList(t testing.TB, c Collector, e *testEnv, slot int, n int) {
	t.Helper()
	a := mem.Addr(e.stack.Slot(slot))
	for i := n - 1; i >= 0; i-- {
		if a.IsNil() {
			t.Fatalf("list ended early at value %d", i)
		}
		o := obj.Decode(c.Heap(), a)
		if o.Kind != obj.Record || o.Len != 2 {
			t.Fatalf("cell %d decoded as %v/%d", i, o.Kind, o.Len)
		}
		if got := c.LoadField(a, 0); got != uint64(i) {
			t.Fatalf("cell value = %d, want %d", got, i)
		}
		a = mem.Addr(c.LoadField(a, 1))
	}
	if !a.IsNil() {
		t.Fatal("list longer than expected")
	}
}

func newSemi(e *testEnv, budget uint64) *Semispace {
	return NewSemispace(e.stack, e.meter, nil, SemispaceConfig{
		BudgetWords: budget, InitialWords: 256,
	})
}

func newGen(e *testEnv, cfg GenConfig) *Generational {
	return NewGenerational(e.stack, e.meter, nil, cfg)
}

func TestSemispaceListSurvivesCollections(t *testing.T) {
	e := newEnv(4)
	c := newSemi(e, 1<<20)
	consList(t, c, e, 1, 500, 7)
	before := c.Stats().NumGC
	c.Collect(true)
	c.Collect(true)
	if c.Stats().NumGC != before+2 {
		t.Fatal("forced collections not counted")
	}
	checkConsList(t, c, e, 1, 500)
}

func TestSemispaceReclaimsGarbage(t *testing.T) {
	e := newEnv(2)
	c := newSemi(e, 1<<20)
	consList(t, c, e, 1, 1000, 1)
	e.stack.SetSlot(1, uint64(mem.Nil)) // drop the list
	c.Collect(true)
	live := c.heap.Space(c.cur.ID()).Used()
	if live != 0 {
		t.Fatalf("garbage not reclaimed: %d live words", live)
	}
}

func TestSemispaceGCTriggeredByExhaustion(t *testing.T) {
	e := newEnv(2)
	c := NewSemispace(e.stack, e.meter, nil, SemispaceConfig{
		BudgetWords: 4096, InitialWords: 512,
	})
	// Allocate garbage far beyond the budget; collections must keep it fit.
	for i := 0; i < 2000; i++ {
		c.Alloc(obj.Record, 2, 1, 0)
	}
	if c.Stats().NumGC == 0 {
		t.Fatal("no collection despite exhaustion")
	}
	if c.Stats().BytesAllocated != 2000*4*mem.WordSize {
		t.Fatalf("BytesAllocated = %d", c.Stats().BytesAllocated)
	}
}

func TestSemispaceSharedStructurePreserved(t *testing.T) {
	e := newEnv(4)
	c := newSemi(e, 1<<20)
	// Two roots pointing at the same record; after GC they must still
	// point at one object (no duplication).
	a := c.Alloc(obj.Record, 1, 1, 0)
	c.InitField(a, 0, 99)
	e.stack.SetSlot(1, uint64(a))
	e.stack.SetSlot(2, uint64(a))
	c.Collect(true)
	v1, v2 := e.stack.Slot(1), e.stack.Slot(2)
	if v1 != v2 {
		t.Fatal("shared object was duplicated during copy")
	}
	if c.LoadField(mem.Addr(v1), 0) != 99 {
		t.Fatal("contents lost")
	}
}

func TestSemispaceCycleSurvives(t *testing.T) {
	e := newEnv(2)
	c := newSemi(e, 1<<20)
	a := c.Alloc(obj.Record, 1, 1, 0b1)
	e.stack.SetSlot(1, uint64(a))
	b := c.Alloc(obj.Record, 1, 1, 0b1)
	c.InitField(b, 0, e.stack.Slot(1))
	a = mem.Addr(e.stack.Slot(1))
	c.StoreField(a, 0, uint64(b), true)
	c.Collect(true)
	a = mem.Addr(e.stack.Slot(1))
	bAddr := mem.Addr(c.LoadField(a, 0))
	if mem.Addr(c.LoadField(bAddr, 0)) != a {
		t.Fatal("cycle broken by collection")
	}
}

func TestGenerationalPromotionAndMinorGC(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512})
	consList(t, c, e, 1, 2000, 3) // far exceeds the nursery: many minor GCs
	if c.Stats().NumGC == 0 {
		t.Fatal("no minor collections")
	}
	checkConsList(t, c, e, 1, 2000)
	// After one more minor collection the whole list is out of the nursery.
	c.Collect(false)
	checkConsList(t, c, e, 1, 2000)
	head := mem.Addr(e.stack.Slot(1))
	if head.Space() == c.nursery.ID() {
		t.Fatal("live list head still in nursery after collections")
	}
}

func TestGenerationalWriteBarrierOldToYoung(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512})
	// Build an old object (survives a minor GC)...
	oldObj := c.Alloc(obj.Record, 1, 1, 0b1)
	e.stack.SetSlot(1, uint64(oldObj))
	c.Collect(false)
	oldObj = mem.Addr(e.stack.Slot(1))
	if oldObj.Space() == c.nursery.ID() {
		t.Fatal("object not promoted")
	}
	// ...then point it at a young object and drop all stack references.
	young := c.Alloc(obj.Record, 1, 2, 0)
	c.InitField(young, 0, 4242)
	c.StoreField(oldObj, 0, uint64(young), true)
	c.Collect(false)
	// The young object is reachable only through the old one.
	oldObj = mem.Addr(e.stack.Slot(1))
	got := mem.Addr(c.LoadField(oldObj, 0))
	if got.IsNil() || got.Space() == c.nursery.ID() {
		t.Fatalf("young target not promoted via remembered set: %v", got)
	}
	if c.LoadField(got, 0) != 4242 {
		t.Fatal("young target corrupted")
	}
}

func TestGenerationalWriteBarrierWithoutBarrierWouldDangle(t *testing.T) {
	// Meta-test of the test above: verify the SSB is what saves the young
	// object (the collector processed at least one SSB entry).
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512})
	oldObj := c.Alloc(obj.Record, 1, 1, 0b1)
	e.stack.SetSlot(1, uint64(oldObj))
	c.Collect(false)
	oldObj = mem.Addr(e.stack.Slot(1))
	young := c.Alloc(obj.Record, 1, 2, 0)
	c.StoreField(oldObj, 0, uint64(young), true)
	c.Collect(false)
	if c.Stats().SSBProcessed == 0 {
		t.Fatal("SSB never processed")
	}
}

// TestCollectorOwnsThreadSet: a collector built straight over a stack
// comes with its thread set, thread 0 wrapping that stack. A pointer
// store made on a spawned thread reaches the remembered set — dirtying
// the shared card table at once, or landing in the spawned thread's own
// SSB — and the next minor collection forwards the young target through
// it.
func TestCollectorOwnsThreadSet(t *testing.T) {
	for _, cards := range []bool{true, false} {
		t.Run(map[bool]string{true: "cards", false: "ssb"}[cards], func(t *testing.T) {
			e := newEnv(4)
			c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512, UseCardTable: cards})
			ts := c.Threads()
			if ts.Len() != 1 || ts.Thread(0).Stack() != e.stack {
				t.Fatal("the collector's thread set does not wrap its stack as thread 0")
			}
			oldObj := c.Alloc(obj.Record, 1, 1, 0b1)
			e.stack.SetSlot(1, uint64(oldObj))
			c.Collect(false)
			oldObj = mem.Addr(e.stack.Slot(1))
			if oldObj.Space() == c.nursery.ID() {
				t.Fatal("object not promoted")
			}

			th := ts.Spawn()
			th.Stack().Call(e.root)
			ts.SetCurrent(th.ID())
			young := c.Alloc(obj.Record, 1, 2, 0)
			c.InitField(young, 0, 4242)
			c.StoreField(oldObj, 0, uint64(young), true)
			fa := obj.FieldAddr(c.Heap(), oldObj, 0)
			if cards {
				if !c.Inspect().Cards.Covers(fa) {
					t.Fatal("the spawned thread's store left its card clean in the shared table")
				}
			} else if th.SSB().Len() != 1 || ts.Thread(0).SSB().Len() != 0 {
				t.Fatalf("SSB entries: thread 0 %d, spawned %d; want 0, 1",
					ts.Thread(0).SSB().Len(), th.SSB().Len())
			}

			c.Collect(false)
			got := mem.Addr(c.LoadField(oldObj, 0))
			if got.IsNil() || got.Space() == c.nursery.ID() {
				t.Fatalf("young target not forwarded via the remembered set: %v", got)
			}
			if c.LoadField(got, 0) != 4242 {
				t.Fatal("young target corrupted")
			}
		})
	}
}

func TestGenerationalMajorGCReclaimsTenuredGarbage(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 64 * 1024, NurseryWords: 512})
	// Repeatedly build lists that survive one minor GC then die: tenured
	// garbage accumulates until a major collection reclaims it.
	for round := 0; round < 200; round++ {
		consList(t, c, e, 1, 100, 5)
		c.Collect(false) // promote
		e.stack.SetSlot(1, uint64(mem.Nil))
	}
	if c.Stats().NumMajor == 0 {
		t.Fatal("no major collection despite tenured garbage pressure")
	}
	// Everything is dead; after one more major the tenured space is empty.
	c.Collect(true)
	if used := c.ten.Used(); used != 0 {
		t.Fatalf("tenured garbage survives: %d words", used)
	}
}

func TestGenerationalMajorPreservesDeepStructure(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512})
	consList(t, c, e, 1, 3000, 9)
	c.Collect(false)
	c.Collect(true) // major: copies the promoted list between tenured spaces
	c.Collect(true)
	checkConsList(t, c, e, 1, 3000)
}

func TestLargeObjectsBypassNursery(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512, LargeObjectWords: 64})
	big := c.Alloc(obj.RawArray, 128, 1, 0)
	if !c.los.Contains(big.Space()) {
		t.Fatal("large array not in LOS")
	}
	c.InitField(big, 100, 0xabc)
	e.stack.SetSlot(1, uint64(big))
	c.Collect(false)
	c.Collect(true)
	// LOS objects never move.
	if mem.Addr(e.stack.Slot(1)) != big {
		t.Fatal("large object moved")
	}
	if c.LoadField(big, 100) != 0xabc {
		t.Fatal("large object corrupted")
	}
}

func TestLOSSweepFreesDeadLargeObjects(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512, LargeObjectWords: 64})
	dead := c.Alloc(obj.RawArray, 128, 1, 0)
	live := c.Alloc(obj.RawArray, 128, 1, 0)
	e.stack.SetSlot(1, uint64(live))
	_ = dead
	c.Collect(true)
	if c.los.Count() != 1 {
		t.Fatalf("LOS count = %d, want 1", c.los.Count())
	}
	if c.Stats().LOSSwept != 1 {
		t.Fatalf("LOSSwept = %d", c.Stats().LOSSwept)
	}
	// Access to the freed arena must fault.
	defer func() {
		if recover() == nil {
			t.Fatal("dangling LOS access did not fault")
		}
	}()
	c.Heap().Load(dead)
}

// TestLOSInspectionOwnsSpaceIDs: an Inspection's LOSSpaces is the
// caller's own slice. The sweep compacts the LOS's live-id list in place,
// and must not rewrite an inspection taken before it.
func TestLOSInspectionOwnsSpaceIDs(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512, LargeObjectWords: 64})
	dead := c.Alloc(obj.RawArray, 128, 1, 0)
	live := c.Alloc(obj.RawArray, 128, 1, 0)
	e.stack.SetSlot(1, uint64(live))
	before := c.Inspect().LOSSpaces
	c.Collect(true)
	if want := []mem.SpaceID{dead.Space(), live.Space()}; !slices.Equal(before, want) {
		t.Fatalf("inspection taken before the sweep reads %v, want %v", before, want)
	}
	if got, want := c.Inspect().LOSSpaces, []mem.SpaceID{live.Space()}; !slices.Equal(got, want) {
		t.Fatalf("LOSSpaces after the sweep = %v, want %v", got, want)
	}
	if c.los.Contains(dead.Space()) || !c.los.Contains(live.Space()) {
		t.Fatal("LOS membership wrong after the sweep")
	}
}

// TestLOSArenasSizedToObject: each large object gets its own fresh
// arena, so the arena must cost the Go heap about the object's size — at
// most the 2x power-of-two headroom — not a fixed minimum arena per
// object. (Minor collections only: a major returns the old tenured arena
// to the heap's pool, and a large object may then recycle it.)
func TestLOSArenasSizedToObject(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512, LargeObjectWords: 64})
	for i := 0; i < 24; i++ {
		a := c.Alloc(obj.RawArray, 100, 1, 0)
		if i%3 == 0 {
			e.stack.SetSlot(1+i%4, uint64(a))
		}
		if i%8 == 7 {
			c.Collect(false)
		}
	}
	in := c.Inspect()
	if len(in.LOSSpaces) == 0 {
		t.Fatal("no large-object spaces")
	}
	size := obj.SizeWords(obj.RawArray, 100)
	for _, id := range in.LOSSpaces {
		if got := uint64(cap(c.Heap().Space(id).Raw())); got > 2*size {
			t.Errorf("LOS space %d: arena of %d words for a %d-word object, want <= %d", id, got, size, 2*size)
		}
	}
}

func TestFreshLOSPointerArrayKeepsYoungTargets(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512, LargeObjectWords: 64})
	small := c.Alloc(obj.Record, 1, 2, 0)
	c.InitField(small, 0, 777)
	e.stack.SetSlot(1, uint64(small))
	big := c.Alloc(obj.PtrArray, 100, 1, 0)
	c.InitField(big, 3, e.stack.Slot(1)) // init store: no barrier
	e.stack.SetSlot(2, uint64(big))
	e.stack.SetSlot(1, uint64(mem.Nil)) // young object now only reachable via the LOS array
	c.Collect(false)
	big = mem.Addr(e.stack.Slot(2))
	target := mem.Addr(c.LoadField(big, 3))
	if target.IsNil() || target.Space() == c.nursery.ID() {
		t.Fatal("young object referenced by fresh LOS array was lost")
	}
	if c.LoadField(target, 0) != 777 {
		t.Fatal("target corrupted")
	}
}

func TestCalleeSaveSlotResolution(t *testing.T) {
	// Frame g saves caller register 3 into slot 1. When the caller's
	// register 3 is a pointer, the saved slot is a root; when not, not.
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	fRegs := make([]rt.SlotTrace, rt.NumRegs)
	fRegs[3] = rt.PTR() // f keeps a pointer in r3 at call points
	f := table.Register("f", []rt.SlotTrace{rt.NP(), rt.PTR()}, fRegs)
	gRegs := make([]rt.SlotTrace, rt.NumRegs)
	gRegs[3] = rt.SAVE(3) // g preserves r3
	g := table.Register("g", []rt.SlotTrace{rt.NP(), rt.SAVE(3)}, gRegs)

	stack.Call(f)
	var stats GCStats
	c := NewSemispace(stack, meter, nil, SemispaceConfig{BudgetWords: 1 << 20, InitialWords: 256})
	_ = stats

	p := c.Alloc(obj.Record, 1, 1, 0)
	c.InitField(p, 0, 31337)
	stack.SetSlot(1, uint64(p))
	stack.SetReg(3, uint64(p))
	stack.Call(g)
	stack.SetSlot(1, uint64(p)) // "spill" r3 into g's callee-save slot

	c.Collect(true)
	// Both the saved slot and the register must have been forwarded
	// to the same new address.
	saved := mem.Addr(stack.Slot(1))
	reg := mem.Addr(stack.Reg(3))
	if saved != reg {
		t.Fatalf("callee-save slot %v and register %v diverged", saved, reg)
	}
	if c.LoadField(saved, 0) != 31337 {
		t.Fatal("callee-saved pointer target corrupted")
	}
}

func TestComputeTraceResolution(t *testing.T) {
	// Slot 2's pointer-ness is computed from the runtime type in slot 1.
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	f := table.Register("poly", []rt.SlotTrace{rt.NP(), rt.NP(), rt.COMPSLOT(1)}, nil)
	stack.Call(f)
	c := NewSemispace(stack, meter, nil, SemispaceConfig{BudgetWords: 1 << 20, InitialWords: 256})

	p := c.Alloc(obj.Record, 1, 1, 0)
	c.InitField(p, 0, 55)
	stack.SetSlot(1, rt.TypePointer)
	stack.SetSlot(2, uint64(p))
	c.Collect(true)
	if got := c.LoadField(mem.Addr(stack.Slot(2)), 0); got != 55 {
		t.Fatalf("COMPUTE-traced root not forwarded: field = %d", got)
	}

	// Now flip the type to non-pointer: the slot must be left alone even
	// though it holds a stale-looking value.
	stack.SetSlot(1, rt.TypeNonPointer)
	stack.SetSlot(2, 0xdead0001)
	c.Collect(true)
	if stack.Slot(2) != 0xdead0001 {
		t.Fatal("non-pointer COMPUTE slot was modified")
	}
}

func TestRegisterRootsForwarded(t *testing.T) {
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	regs := make([]rt.SlotTrace, rt.NumRegs)
	regs[0] = rt.PTR()
	f := table.Register("f", []rt.SlotTrace{rt.NP(), rt.PTR()}, regs)
	stack.Call(f)
	c := NewSemispace(stack, meter, nil, SemispaceConfig{BudgetWords: 1 << 20, InitialWords: 256})
	p := c.Alloc(obj.Record, 1, 1, 0)
	c.InitField(p, 0, 11)
	stack.SetSlot(1, uint64(p))
	stack.SetReg(0, uint64(p))
	c.Collect(true)
	if stack.Reg(0) != stack.Slot(1) {
		t.Fatal("register root not forwarded in step with slot root")
	}
}

func TestPauseAccounting(t *testing.T) {
	e := newEnv(2)
	c := newGen(e, GenConfig{BudgetWords: 1 << 20, NurseryWords: 512})
	consList(t, c, e, 1, 3000, 1)
	c.Collect(true)
	s := c.Stats()
	if s.MaxPauseCycles == 0 || s.SumPauseCycles == 0 {
		t.Fatal("no pauses recorded")
	}
	if s.MaxPauseCycles > s.SumPauseCycles {
		t.Fatal("max pause exceeds sum")
	}
	if avg := s.AvgPauseCycles(); avg <= 0 || avg > float64(s.MaxPauseCycles) {
		t.Fatalf("avg pause %g out of range", avg)
	}
	// A minor that escalates to major counts as ONE pause event.
	if s.SumPauseCycles > uint64(e.meter.GC()) {
		t.Fatal("pause sum exceeds total GC time (double counting)")
	}
}

func TestMarkersReducePauseTimes(t *testing.T) {
	run := func(markerN int) uint64 {
		e := newEnv(2)
		c := newGen(e, GenConfig{BudgetWords: 1 << 22, NurseryWords: 512, MarkerN: markerN})
		fi := ptrFrame(e)
		deepEnv(t, c, e, fi, 1500)
		for i := 0; i < 20; i++ {
			for j := 0; j < 200; j++ {
				c.Alloc(obj.Record, 2, 2, 0)
			}
			c.Collect(false)
		}
		checkDeep(t, c, e, 1500)
		// Ignore the first scan (cold cache): compare steady-state via avg.
		return uint64(c.Stats().AvgPauseCycles())
	}
	base := run(0)
	marked := run(25)
	if marked*2 > base {
		t.Fatalf("markers did not halve steady-state pauses: %d vs %d", marked, base)
	}
}
