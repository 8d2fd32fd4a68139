package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// TestQuickListSurvivesAnyCollectionSchedule: for any random interleaving
// of allocations and forced minor/major collections, a linked list rooted
// in a stack slot keeps its exact contents.
func TestQuickListSurvivesAnyCollectionSchedule(t *testing.T) {
	f := func(ops []uint8, nurseryShift uint8) bool {
		e := newEnv(2)
		nursery := uint64(256) << (nurseryShift % 4)
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 20, NurseryWords: nursery,
		})
		var want []uint64
		for _, op := range ops {
			switch op % 8 {
			case 7:
				c.Collect(op%16 < 8)
			default:
				v := uint64(op) * 2654435761
				cell := c.Alloc(obj.Record, 2, 1, 0b10)
				c.InitField(cell, 0, v)
				c.InitField(cell, 1, e.stack.Slot(1))
				e.stack.SetSlot(1, uint64(cell))
				want = append(want, v)
			}
		}
		a := mem.Addr(e.stack.Slot(1))
		for i := len(want) - 1; i >= 0; i-- {
			if a.IsNil() || c.LoadField(a, 0) != want[i] {
				return false
			}
			a = mem.Addr(c.LoadField(a, 1))
		}
		return a.IsNil()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMarkerBoundaryNeverExceedsStableFrames: for any random
// call/return/raise trace, the reuse boundary never names a frame that
// was popped since the markers were placed.
func TestQuickMarkerBoundaryNeverExceedsStableFrames(t *testing.T) {
	f := func(trace []uint8, markerN uint8) bool {
		n := int(markerN%9) + 2
		table := rt.NewTraceTable()
		meter := costmodel.NewMeter()
		stack := rt.NewStack(table, meter)
		fi := table.Register("f", make([]rt.SlotTrace, 3), nil)
		var stats GCStats
		sc := NewStackScanner(stack, meter, &stats, n)

		// minSince[i] is the minimum depth reached since the last scan,
		// the ground truth for which frames are untouched.
		minDepth := 0
		for i := 0; i < 30; i++ {
			stack.Call(fi)
		}
		sc.Scan(true, func(RootLoc) {})
		sc.NoteCollection()
		minDepth = stack.Depth()

		for _, op := range trace {
			switch op % 4 {
			case 0, 1:
				stack.Call(fi)
			case 2:
				if stack.Depth() > 1 {
					stack.Return()
				}
			case 3:
				if stack.Depth() > 3 {
					stack.PushHandler()
					stack.Call(fi)
					stack.Call(fi)
					stack.Raise()
				}
			}
			if stack.Depth() < minDepth {
				minDepth = stack.Depth()
			}
		}
		b := stack.ReuseBoundary()
		// Frames 0..b-1 must be untouched: they are untouched iff the
		// stack never dipped to depth <= b-1... i.e. minDepth > b-1.
		return b <= minDepth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickScanEquivalence: for any random stack shape, a marker-enabled
// scanner (after arbitrary churn) reports the same root set as a fresh
// full scan.
func TestQuickScanEquivalence(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		table := rt.NewTraceTable()
		meter := costmodel.NewMeter()
		stack := rt.NewStack(table, meter)
		layouts := []*rt.FrameInfo{
			table.Register("a", []rt.SlotTrace{rt.NP(), rt.PTR()}, nil),
			table.Register("b", []rt.SlotTrace{rt.NP(), rt.PTR(), rt.NP(), rt.PTR()}, nil),
			table.Register("c", []rt.SlotTrace{rt.NP(), rt.NP(), rt.COMPSLOT(1)}, nil),
		}
		var stats GCStats
		marked := NewStackScanner(stack, meter, &stats, 4)

		push := func() {
			fi := layouts[rng.Intn(len(layouts))]
			stack.Call(fi)
			for s := 1; s < fi.Size; s++ {
				switch fi.Slots[s].Kind {
				case rt.TracePointer:
					stack.SetSlot(s, uint64(mem.MakeAddr(1, uint64(rng.Intn(100)+1))))
				case rt.TraceNonPointer:
					if fi.Slots[s+0].Kind == rt.TraceNonPointer && s == 1 && fi.Name == "c" {
						stack.SetSlot(s, uint64(rng.Intn(2))) // runtime type
					}
				}
			}
			// Fill COMPUTE slots with plausible pointers.
			for s := 1; s < fi.Size; s++ {
				if fi.Slots[s].Kind == rt.TraceCompute {
					stack.SetSlot(s, uint64(mem.MakeAddr(1, uint64(rng.Intn(100)+1))))
				}
			}
		}
		for i := 0; i < 20; i++ {
			push()
		}
		for step := 0; step < int(steps); step++ {
			// Alternate scans and churn.
			if step%3 == 0 {
				marked.Scan(step%2 == 0, func(RootLoc) {})
			}
			if rng.Intn(2) == 0 && stack.Depth() > 1 {
				stack.Return()
			} else {
				push()
			}
		}
		got := map[RootLoc]bool{}
		marked.Scan(false, func(l RootLoc) { got[l] = true })
		want := map[RootLoc]bool{}
		fresh := NewStackScanner(stack, meter, &stats, 0)
		fresh.Scan(false, func(l RootLoc) { want[l] = true })
		if len(got) != len(want) {
			return false
		}
		for l := range want {
			if !got[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickPretenurePreservesSemantics: any random site subset chosen for
// pretenuring leaves a list workload's contents untouched.
func TestQuickPretenurePreservesSemantics(t *testing.T) {
	f := func(siteMask uint8, ops []uint8) bool {
		sites := map[obj.SiteID]PretenureDecision{}
		for s := 0; s < 8; s++ {
			if siteMask>>s&1 == 1 {
				sites[obj.SiteID(s+1)] = PretenureDecision{}
			}
		}
		e := newEnv(2)
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 20, NurseryWords: 512,
			Pretenure: NewPretenurePolicy(sites),
		})
		var want []uint64
		for i, op := range ops {
			site := obj.SiteID(op%8 + 1)
			v := uint64(i)*31 + uint64(op)
			cell := c.Alloc(obj.Record, 2, site, 0b10)
			c.InitField(cell, 0, v)
			c.InitField(cell, 1, e.stack.Slot(1))
			e.stack.SetSlot(1, uint64(cell))
			want = append(want, v)
			if op%13 == 0 {
				c.Collect(op%2 == 0)
			}
		}
		a := mem.Addr(e.stack.Slot(1))
		for i := len(want) - 1; i >= 0; i-- {
			if a.IsNil() || c.LoadField(a, 0) != want[i] {
				return false
			}
			a = mem.Addr(c.LoadField(a, 1))
		}
		return a.IsNil()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickSSBOrderIndependence: random mutation patterns never lose a
// young object reachable only through an old one, regardless of how many
// duplicate SSB entries pile up.
func TestQuickSSBOrderIndependence(t *testing.T) {
	f := func(writes []uint8) bool {
		e := newEnv(2)
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 20, NurseryWords: 512,
		})
		// An old array of 8 pointer fields.
		arr := c.Alloc(obj.PtrArray, 8, 1, 0)
		e.stack.SetSlot(1, uint64(arr))
		c.Collect(false)
		arr = mem.Addr(e.stack.Slot(1))

		want := map[uint64]uint64{} // field -> expected payload
		for i, w := range writes {
			field := uint64(w % 8)
			young := c.Alloc(obj.Record, 1, 2, 0)
			c.InitField(young, 0, uint64(i)+1000)
			arr = mem.Addr(e.stack.Slot(1))
			c.StoreField(arr, field, uint64(young), true)
			want[field] = uint64(i) + 1000
			if w%11 == 0 {
				c.Collect(false)
			}
		}
		c.Collect(false)
		arr = mem.Addr(e.stack.Slot(1))
		for field, v := range want {
			p := mem.Addr(c.LoadField(arr, field))
			if p.IsNil() || c.LoadField(p, 0) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSemispaceWithMarkers exercises the §7.1 note that generational
// stack collection also applies to non-generational collectors.
func TestSemispaceWithMarkers(t *testing.T) {
	e := newEnv(2)
	c := NewSemispace(e.stack, e.meter, nil, Config{
		BudgetWords: 1 << 20, InitialWords: 512, MarkerN: 5,
	})
	if c.Name() != "semispace+markers" {
		t.Fatalf("name = %q", c.Name())
	}
	fi := ptrFrame(e)
	deepEnv(t, c, e, fi, 100)
	for i := 0; i < 8; i++ {
		c.Collect(true)
	}
	checkDeep(t, c, e, 100)
	if c.Stats().FramesReused == 0 {
		t.Fatal("semispace collector reused no frames despite markers")
	}
}
