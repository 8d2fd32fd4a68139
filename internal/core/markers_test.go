package core

import (
	"testing"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// deepEnv builds a stack with `depth` frames each holding one pointer slot
// referencing a private record, on top of the test root frame.
func deepEnv(t *testing.T, c Collector, e *testEnv, fi *rt.FrameInfo, depth int) {
	t.Helper()
	for i := 0; i < depth; i++ {
		e.stack.Call(fi)
		p := c.Alloc(obj.Record, 1, 1, 0)
		c.InitField(p, 0, uint64(1000+i))
		e.stack.SetSlot(1, uint64(p))
	}
}

// checkDeep verifies every deep frame's pointee survived, unwinding as it
// goes.
func checkDeep(t *testing.T, c Collector, e *testEnv, depth int) {
	t.Helper()
	for i := depth - 1; i >= 0; i-- {
		a := mem.Addr(e.stack.Slot(1))
		if got := c.LoadField(a, 0); got != uint64(1000+i) {
			t.Fatalf("frame %d pointee = %d, want %d", i, got, 1000+i)
		}
		e.stack.Return()
	}
}

func ptrFrame(e *testEnv) *rt.FrameInfo {
	return e.table.Register("deep", []rt.SlotTrace{rt.NP(), rt.PTR()}, nil)
}

func TestMarkersPreserveDeepRoots(t *testing.T) {
	e := newEnv(2)
	c := NewGenerational(e.stack, e.meter, nil, Config{
		BudgetWords: 1 << 20, NurseryWords: 512, MarkerN: 5,
	})
	fi := ptrFrame(e)
	deepEnv(t, c, e, fi, 200)
	// Several collections with the deep stack in place.
	for i := 0; i < 10; i++ {
		c.Collect(false)
	}
	c.Collect(true)
	c.Collect(false)
	checkDeep(t, c, e, 200)
}

func TestMarkersReduceFrameDecodes(t *testing.T) {
	run := func(markerN int) (decoded, reused uint64) {
		e := newEnv(2)
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 22, NurseryWords: 512, MarkerN: markerN,
		})
		fi := ptrFrame(e)
		deepEnv(t, c, e, fi, 500)
		for i := 0; i < 50; i++ {
			// Churn allocations at constant depth: repeated minor GCs.
			for j := 0; j < 200; j++ {
				c.Alloc(obj.Record, 2, 2, 0)
			}
			c.Collect(false)
		}
		checkDeep(t, c, e, 500)
		return c.Stats().FramesDecoded, c.Stats().FramesReused
	}
	decodedOff, reusedOff := run(0)
	decodedOn, reusedOn := run(25)
	if reusedOff != 0 {
		t.Fatalf("baseline reused %d frames", reusedOff)
	}
	if reusedOn == 0 {
		t.Fatal("markers reused nothing")
	}
	if decodedOn*5 > decodedOff {
		t.Fatalf("markers barely reduced decodes: %d vs %d", decodedOn, decodedOff)
	}
}

func TestMarkersReduceGCStackCost(t *testing.T) {
	run := func(markerN int) costmodel.Cycles {
		e := newEnv(2)
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 22, NurseryWords: 512, MarkerN: markerN,
		})
		fi := ptrFrame(e)
		deepEnv(t, c, e, fi, 1000)
		for i := 0; i < 30; i++ {
			for j := 0; j < 200; j++ {
				c.Alloc(obj.Record, 2, 2, 0)
			}
			c.Collect(false)
		}
		checkDeep(t, c, e, 1000)
		return e.meter.Get(costmodel.GCStack)
	}
	off := run(0)
	on := run(25)
	if on*2 > off {
		t.Fatalf("GC-stack cost not halved: with=%d without=%d", on, off)
	}
}

func TestMarkersSameRootsAsFullScan(t *testing.T) {
	// Differential test: a scan with marker reuse must produce exactly the
	// same set of root locations as a fresh full scan of the same stack.
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	fi := table.Register("f", []rt.SlotTrace{rt.NP(), rt.PTR(), rt.NP()}, nil)
	for i := 0; i < 100; i++ {
		stack.Call(fi)
		stack.SetSlot(1, uint64(mem.MakeAddr(1, uint64(i+1))))
	}
	var stats GCStats
	collect := func(sc *StackScanner, minor bool) map[RootLoc]bool {
		got := map[RootLoc]bool{}
		sc.Scan(minor, func(l RootLoc) { got[l] = true })
		return got
	}
	marked := NewStackScanner(stack, meter, &stats, 10)
	full := NewStackScanner(stack, meter, &stats, 0)
	first := collect(marked, false)
	// Pop a few frames (fires a marker), push some new ones, then compare
	// a major (cached-roots) scan against a fresh full scan.
	for i := 0; i < 15; i++ {
		stack.Return()
	}
	for i := 0; i < 7; i++ {
		stack.Call(fi)
		stack.SetSlot(1, uint64(mem.MakeAddr(1, uint64(500+i))))
	}
	second := collect(marked, false)
	reference := collect(full, false)
	if len(first) == 0 || len(second) != len(reference) {
		t.Fatalf("root counts: first=%d second=%d reference=%d", len(first), len(second), len(reference))
	}
	for l := range reference {
		if !second[l] {
			t.Fatalf("marker scan missed root %+v", l)
		}
	}
}

func TestMarkerScanAfterRaise(t *testing.T) {
	// An exception jumping past markers must not let the collector reuse
	// stale frames.
	e := newEnv(2)
	c := NewGenerational(e.stack, e.meter, nil, Config{
		BudgetWords: 1 << 20, NurseryWords: 512, MarkerN: 5,
	})
	fi := ptrFrame(e)
	deepEnv(t, c, e, fi, 50)
	c.Collect(false) // places markers
	e.stack.PushHandler()
	deepEnv(t, c, e, fi, 50)
	e.stack.Raise() // unwind 50 frames past markers without firing stubs
	// Regrow with different pointees.
	deepEnv(t, c, e, fi, 60)
	for i := 0; i < 5; i++ {
		c.Collect(false)
	}
	c.Collect(true)
	checkDeep(t, c, e, 60)
	checkDeep(t, c, e, 50)
}

func TestPretenuredAllocationGoesTenured(t *testing.T) {
	e := newEnv(2)
	policy := NewPretenurePolicy(map[obj.SiteID]PretenureDecision{
		42: {},
	})
	c := NewGenerational(e.stack, e.meter, nil, Config{
		BudgetWords: 1 << 20, NurseryWords: 512, Pretenure: policy,
	})
	a := c.Alloc(obj.Record, 2, 42, 0)
	if a.Space() == c.nursery.ID() {
		t.Fatal("pretenured site allocated in nursery")
	}
	b := c.Alloc(obj.Record, 2, 7, 0)
	if b.Space() != c.nursery.ID() {
		t.Fatal("normal site not allocated in nursery")
	}
	if c.Stats().Pretenured != 1 {
		t.Fatalf("Pretenured = %d", c.Stats().Pretenured)
	}
}

func TestPretenuredRegionScanFindsYoungRefs(t *testing.T) {
	e := newEnv(2)
	policy := NewPretenurePolicy(map[obj.SiteID]PretenureDecision{42: {}})
	c := NewGenerational(e.stack, e.meter, nil, Config{
		BudgetWords: 1 << 20, NurseryWords: 512, Pretenure: policy,
	})
	young := c.Alloc(obj.Record, 1, 1, 0)
	c.InitField(young, 0, 808)
	e.stack.SetSlot(1, uint64(young))
	oldObj := c.Alloc(obj.Record, 1, 42, 0b1) // pretenured, points young
	c.InitField(oldObj, 0, e.stack.Slot(1))
	e.stack.SetSlot(2, uint64(oldObj))
	e.stack.SetSlot(1, uint64(mem.Nil)) // young now reachable only via pretenured obj
	c.Collect(false)
	oldObj = mem.Addr(e.stack.Slot(2))
	target := mem.Addr(c.LoadField(oldObj, 0))
	if target.IsNil() || target.Space() == c.nursery.ID() {
		t.Fatal("young object referenced by pretenured object lost")
	}
	if c.LoadField(target, 0) != 808 {
		t.Fatal("target corrupted")
	}
	if c.Stats().BytesScanned == 0 {
		t.Fatal("pretenured region was not scanned")
	}
}

func TestPretenuringReducesCopying(t *testing.T) {
	// A site whose objects all live to the end of the run: with
	// pretenuring they are never copied by minor collections.
	run := func(policy *PretenurePolicy) uint64 {
		e := newEnv(2)
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 22, NurseryWords: 512, Pretenure: policy,
		})
		consList(t, c, e, 1, 5000, 42) // long-lived list from site 42
		c.Collect(false)
		checkConsList(t, c, e, 1, 5000)
		return c.Stats().BytesCopied
	}
	baseline := run(nil)
	pretenured := run(NewPretenurePolicy(map[obj.SiteID]PretenureDecision{42: {}}))
	if pretenured*4 > baseline {
		t.Fatalf("pretenuring barely reduced copying: %d vs %d", pretenured, baseline)
	}
}

func TestScanElisionSkipsOnlyOldSites(t *testing.T) {
	run := func(elide bool) uint64 {
		e := newEnv(2)
		policy := NewPretenurePolicy(map[obj.SiteID]PretenureDecision{
			42: {OnlyOldRefs: true},
		})
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 22, NurseryWords: 1024,
			Pretenure: policy, ScanElision: elide,
		})
		// Pretenured chain that references only other pretenured objects.
		e.stack.SetSlot(1, uint64(mem.Nil))
		for i := 0; i < 3000; i++ {
			cell := c.Alloc(obj.Record, 2, 42, 0b10)
			c.InitField(cell, 0, uint64(i))
			c.InitField(cell, 1, e.stack.Slot(1))
			e.stack.SetSlot(1, uint64(cell))
		}
		c.Collect(false)
		// Structure must be intact either way.
		a := mem.Addr(e.stack.Slot(1))
		for i := 2999; i >= 0; i-- {
			if c.LoadField(a, 0) != uint64(i) {
				t.Fatalf("cell %d corrupted", i)
			}
			a = mem.Addr(c.LoadField(a, 1))
		}
		return c.Stats().BytesScanned
	}
	scanned := run(false)
	elided := run(true)
	if elided >= scanned {
		t.Fatalf("elision did not reduce scanning: %d vs %d", elided, scanned)
	}
	if elided != 0 {
		t.Fatalf("fully-elidable region still scanned %d bytes", elided)
	}
}

func TestCardTableBarrierKeepsYoungAlive(t *testing.T) {
	e := newEnv(4)
	c := NewGenerational(e.stack, e.meter, nil, Config{
		BudgetWords: 1 << 20, NurseryWords: 512, CardTable: true,
	})
	oldObj := c.Alloc(obj.Record, 1, 1, 0b1)
	e.stack.SetSlot(1, uint64(oldObj))
	c.Collect(false)
	oldObj = mem.Addr(e.stack.Slot(1))
	young := c.Alloc(obj.Record, 1, 2, 0)
	c.InitField(young, 0, 515)
	c.StoreField(oldObj, 0, uint64(young), true)
	c.Collect(false)
	oldObj = mem.Addr(e.stack.Slot(1))
	target := mem.Addr(c.LoadField(oldObj, 0))
	if target.IsNil() || target.Space() == c.nursery.ID() {
		t.Fatal("card table lost young target")
	}
	if c.LoadField(target, 0) != 515 {
		t.Fatal("target corrupted")
	}
}

func TestCardTableCheaperThanSSBUnderHeavyMutation(t *testing.T) {
	run := func(cards bool) costmodel.Cycles {
		e := newEnv(4)
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 22, NurseryWords: 1024, CardTable: cards,
		})
		oldObj := c.Alloc(obj.Record, 2, 1, 0b11)
		e.stack.SetSlot(1, uint64(oldObj))
		c.Collect(false)
		// Hammer the same two fields, Peg-style, between collections.
		for round := 0; round < 20; round++ {
			oldObj = mem.Addr(e.stack.Slot(1))
			for i := 0; i < 20000; i++ {
				c.StoreField(oldObj, uint64(i%2), uint64(mem.Nil), true)
			}
			c.Collect(false)
		}
		return e.meter.GC()
	}
	ssb := run(false)
	cards := run(true)
	if cards*2 > ssb {
		t.Fatalf("card marking not much cheaper under heavy mutation: cards=%d ssb=%d", cards, ssb)
	}
}

func TestExponentialMarkerPolicy(t *testing.T) {
	// The §7.1 "more dynamic policy": for a deep stack with churn near the
	// top, the exponential ladder needs only O(log depth) installed
	// markers (fewer stub returns on eventual unwind) while matching the
	// fixed policy's reuse. Build the deep stack without intervening
	// collections so both policies start from one placement epoch.
	run := func(policy MarkerPolicy) (live int, reused uint64, cost costmodel.Cycles) {
		e := newEnv(2)
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 22, NurseryWords: 8 * 1024,
			MarkerN: 25, MarkerPolicy: policy,
		})
		fi := ptrFrame(e)
		shared := c.Alloc(obj.Record, 1, 1, 0)
		c.InitField(shared, 0, 9)
		e.stack.SetSlot(1, uint64(shared))
		for i := 0; i < 800; i++ {
			e.stack.Call(fi)
			e.stack.SetSlot(1, e.stack.RawSlot(e.stack.FrameBase(e.stack.FrameCount()-2)+1))
		}
		if c.Stats().NumGC != 0 {
			t.Fatal("setup collected; adjust nursery")
		}
		for round := 0; round < 40; round++ {
			for j := 0; j < 5; j++ {
				e.stack.Return()
			}
			for j := 0; j < 5; j++ {
				e.stack.Call(fi)
				e.stack.SetSlot(1, e.stack.RawSlot(e.stack.FrameBase(e.stack.FrameCount()-2)+1))
			}
			for k := 0; k < 2100; k++ {
				c.Alloc(obj.Record, 2, 2, 0)
			}
			c.Collect(false)
		}
		live = e.stack.MarkerCount()
		// The shared record must have survived in every frame.
		for i := 0; i < 800; i++ {
			a := mem.Addr(e.stack.Slot(1))
			if c.LoadField(a, 0) != 9 {
				t.Fatalf("frame %d pointee corrupted", i)
			}
			e.stack.Return()
		}
		return live, c.Stats().FramesReused, e.meter.Get(costmodel.GCStack)
	}
	fl, fr, fs := run(MarkerFixed)
	el, er, es := run(MarkerExponential)
	if fr == 0 || er == 0 {
		t.Fatalf("no reuse: fixed=%d exp=%d", fr, er)
	}
	if el*2 > fl {
		t.Fatalf("exponential keeps too many live markers: %d vs fixed %d", el, fl)
	}
	if es > fs*3/2 {
		t.Fatalf("exponential much slower: %d vs %d", es, fs)
	}
	t.Logf("fixed: live=%d reused=%d stack=%d; exp: live=%d reused=%d stack=%d",
		fl, fr, fs, el, er, es)
}
