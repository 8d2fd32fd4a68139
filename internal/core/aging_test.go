package core

import (
	"fmt"
	"testing"

	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

func TestAgingDelaysPromotion(t *testing.T) {
	e := newEnv(2)
	c := newGen(e, Config{BudgetWords: 1 << 20, NurseryWords: 512, AgingMinors: 2})
	a := c.Alloc(obj.Record, 1, 1, 0)
	c.InitField(a, 0, 55)
	e.stack.SetSlot(1, uint64(a))

	where := func() string {
		id := mem.Addr(e.stack.Slot(1)).Space()
		switch {
		case id == c.nursery.ID():
			return "nursery"
		case id == c.agA || id == c.agB:
			return "aging"
		case id == c.ten.ID():
			return "tenured"
		}
		return "?"
	}
	if where() != "nursery" {
		t.Fatalf("fresh object in %s", where())
	}
	c.Collect(false)
	if where() != "aging" {
		t.Fatalf("after 1 minor: %s, want aging", where())
	}
	c.Collect(false)
	if where() != "aging" {
		t.Fatalf("after 2 minors: %s, want aging (threshold 2)", where())
	}
	c.Collect(false)
	if where() != "tenured" {
		t.Fatalf("after 3 minors: %s, want tenured", where())
	}
	if got := c.LoadField(mem.Addr(e.stack.Slot(1)), 0); got != 55 {
		t.Fatalf("contents lost: %d", got)
	}
}

func TestAgingObjectDiesInAgingSpace(t *testing.T) {
	e := newEnv(2)
	c := newGen(e, Config{BudgetWords: 1 << 20, NurseryWords: 512, AgingMinors: 3})
	// Objects that die after one survival never reach the tenured space:
	// the whole point of non-immediate promotion.
	tenuredBefore := c.ten.Used()
	for round := 0; round < 50; round++ {
		a := c.Alloc(obj.Record, 2, 1, 0)
		e.stack.SetSlot(1, uint64(a))
		c.Collect(false) // survives into aging
		e.stack.SetSlot(1, uint64(mem.Nil))
		c.Collect(false) // dies in aging
	}
	if c.ten.Used() != tenuredBefore {
		t.Fatalf("briefly-surviving objects polluted the tenured space: %d words",
			c.ten.Used()-tenuredBefore)
	}
}

func TestAgingStickyRememberedSet(t *testing.T) {
	// An old object pointing at an aging object must keep it alive across
	// SEVERAL minors (the target moves within the aging space each time).
	e := newEnv(2)
	c := newGen(e, Config{BudgetWords: 1 << 20, NurseryWords: 512, AgingMinors: 3})
	// Make an old (tenured) holder.
	holder := c.Alloc(obj.Record, 1, 1, 0b1)
	e.stack.SetSlot(1, uint64(holder))
	for i := 0; i < 5; i++ {
		c.Collect(false)
	}
	if mem.Addr(e.stack.Slot(1)).Space() != c.ten.ID() {
		t.Fatal("holder not tenured")
	}
	// Young target, reachable only through the holder.
	young := c.Alloc(obj.Record, 1, 2, 0)
	c.InitField(young, 0, 777)
	c.StoreField(mem.Addr(e.stack.Slot(1)), 0, uint64(young), true)
	// Several minors: the target ages through the aging space while only
	// the sticky set keeps the holder's field current.
	for i := 0; i < 5; i++ {
		c.Collect(false)
		holder := mem.Addr(e.stack.Slot(1))
		target := mem.Addr(c.LoadField(holder, 0))
		if target.IsNil() {
			t.Fatalf("minor %d: target lost", i)
		}
		if got := c.LoadField(target, 0); got != 777 {
			t.Fatalf("minor %d: target corrupted: %d", i, got)
		}
	}
	// By now the target must have tenured and left the sticky set.
	target := mem.Addr(c.LoadField(mem.Addr(e.stack.Slot(1)), 0))
	if c.isYoung(target.Space()) {
		t.Fatal("target never tenured")
	}
	if len(c.sticky) != 0 {
		t.Fatalf("sticky set not drained: %d entries", len(c.sticky))
	}
}

func TestAgingShadowGraph(t *testing.T) {
	configs := map[string]func(e *testEnv) Collector{
		"gen-aging1": func(e *testEnv) Collector {
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 1 << 20, NurseryWords: 512, AgingMinors: 1})
		},
		"gen-aging3-markers": func(e *testEnv) Collector {
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 1 << 20, NurseryWords: 512, AgingMinors: 3, MarkerN: 4})
		},
		"gen-aging2-pretenure": func(e *testEnv) Collector {
			pol := NewPretenurePolicy(map[obj.SiteID]PretenureDecision{3: {}, 5: {}})
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 1 << 20, NurseryWords: 512, AgingMinors: 2, Pretenure: pol})
		},
		"gen-aging2-tight": func(e *testEnv) Collector {
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 16384, NurseryWords: 256, AgingMinors: 2})
		},
	}
	for name, mk := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				runShadow(t, name, mk, seed, 4000)
			})
		}
	}
}

func TestAgingDeepStackWithMarkers(t *testing.T) {
	e := newEnv(2)
	c := newGen(e, Config{
		BudgetWords: 1 << 21, NurseryWords: 512, AgingMinors: 2, MarkerN: 5,
	})
	fi := ptrFrame(e)
	deepEnv(t, c, e, fi, 300)
	for i := 0; i < 12; i++ {
		for j := 0; j < 100; j++ {
			c.Alloc(obj.Record, 2, 2, 0)
		}
		c.Collect(false)
	}
	c.Collect(true)
	c.Collect(false)
	checkDeep(t, c, e, 300)
	// With aging, minor scans revisit cached roots (no outright skips),
	// but frames are still not re-decoded.
	if c.Stats().FramesReused == 0 {
		t.Fatal("marker cache unused under aging")
	}
}

// TestAgingAmplifiesPretenuringWin verifies the §7.2 prediction: "since
// objects that are tenured are copied several times before being promoted,
// pretenuring in such systems is likely to yield an even greater benefit".
func TestAgingAmplifiesPretenuringWin(t *testing.T) {
	// A site whose objects all live to the end of the run.
	run := func(aging int, policy *PretenurePolicy) uint64 {
		e := newEnv(2)
		c := NewGenerational(e.stack, e.meter, nil, Config{
			BudgetWords: 1 << 22, NurseryWords: 512,
			AgingMinors: aging, Pretenure: policy,
		})
		consList(t, c, e, 1, 6000, 42)
		c.Collect(false)
		checkConsList(t, c, e, 1, 6000)
		return c.Stats().BytesCopied
	}
	pol := NewPretenurePolicy(map[obj.SiteID]PretenureDecision{42: {}})
	immediateBase := run(0, nil)
	immediatePre := run(0, pol)
	agingBase := run(3, nil)
	agingPre := run(3, pol)

	savedImmediate := immediateBase - immediatePre
	savedAging := agingBase - agingPre
	if agingBase <= immediateBase {
		t.Fatalf("aging should copy MORE without pretenuring: %d vs %d",
			agingBase, immediateBase)
	}
	if savedAging <= savedImmediate {
		t.Fatalf("§7.2 prediction failed: pretenuring saved %d under aging vs %d under immediate promotion",
			savedAging, savedImmediate)
	}
	t.Logf("copied: immediate %d→%d, aging %d→%d (saving %d vs %d)",
		immediateBase, immediatePre, agingBase, agingPre, savedImmediate, savedAging)
}
