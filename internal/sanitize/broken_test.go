package sanitize_test

import (
	"fmt"
	"strings"
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
	"tilgc/internal/sanitize"
)

// env bundles the mutator runtime a collector needs, with a root frame
// exposing pointer slots 1..nRoots.
type env struct {
	table *rt.TraceTable
	meter *costmodel.Meter
	stack *rt.Stack
}

func newEnv(nRoots int) *env {
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	slots := make([]rt.SlotTrace, nRoots+1)
	for i := 1; i <= nRoots; i++ {
		slots[i] = rt.PTR()
	}
	stack.Call(table.Register("sanitize-root", slots, nil))
	return &env{table: table, meter: meter, stack: stack}
}

func newGen(e *env, cfg core.Config) core.Collector {
	if cfg.BudgetWords == 0 {
		cfg.BudgetWords = 1 << 20
	}
	if cfg.NurseryWords == 0 {
		cfg.NurseryWords = 512
	}
	return core.NewGenerational(e.stack, e.meter, nil, cfg)
}

// consList builds a list of n cons cells (record: [value, next-ptr]) with
// the head parked in root slot `slot`.
func consList(c core.Collector, e *env, slot, n int, site obj.SiteID) {
	e.stack.SetSlot(slot, uint64(mem.Nil))
	for i := 0; i < n; i++ {
		cell := c.Alloc(obj.Record, 2, site, 0b10)
		c.InitField(cell, 0, uint64(i))
		c.InitField(cell, 1, e.stack.Slot(slot))
		e.stack.SetSlot(slot, uint64(cell))
	}
}

// brokenCase corrupts one invariant of a freshly built collector, going
// around the collector's own APIs the way a real collector bug would;
// pass names the sanitizer pass that must report it.
type brokenCase struct {
	pass    string
	build   func(e *env) core.Collector
	corrupt func(t *testing.T, c core.Collector, e *env)
}

// brokenCases holds one corruption per invariant pass. Corruptions use
// root slots 1 and 2 only.
var brokenCases = []brokenCase{
	{
		// A pointer-mask bit at an index >= the record length: object
		// traversal never looks there, so only the structural pass sees it.
		pass:  "headers",
		build: func(e *env) core.Collector { return newGen(e, core.Config{}) },
		corrupt: func(t *testing.T, c core.Collector, e *env) {
			a := c.Alloc(obj.Record, 2, 1, 0b01)
			c.InitField(a, 0, uint64(mem.Nil))
			e.stack.SetSlot(1, uint64(a))
			o := obj.Decode(c.Heap(), a)
			c.Heap().Store(o.PayloadAddr(0)-1, 0b100)
		},
	},
	{
		// A root pointing past a live space's allocation frontier — a
		// dangling pointer the next evacuation would copy garbage from.
		pass:  "fromspace",
		build: func(e *env) core.Collector { return newGen(e, core.Config{}) },
		corrupt: func(t *testing.T, c core.Collector, e *env) {
			a := c.Alloc(obj.Record, 2, 1, 0)
			sp := c.Heap().SpaceOf(a)
			e.stack.SetSlot(2, uint64(mem.MakeAddr(a.Space(), sp.Used()+64)))
		},
	},
	{
		// An old-to-young edge written without the barrier: both objects
		// are live and well-formed, so only remembered-set completeness
		// can notice the next minor GC would miss this edge.
		pass:  "remembered",
		build: func(e *env) core.Collector { return newGen(e, core.Config{}) },
		corrupt: func(t *testing.T, c core.Collector, e *env) {
			consList(c, e, 1, 5, 1)
			c.Collect(false) // promote the list (immediate promotion)
			young := c.Alloc(obj.Record, 1, 2, 0)
			c.InitField(young, 0, 7)
			e.stack.SetSlot(2, uint64(young))
			head := mem.Addr(e.stack.Slot(1))
			o := obj.Decode(c.Heap(), head)
			c.Heap().Store(o.PayloadAddr(1), uint64(young))
		},
	},
	{
		// An orphan marker stub in a collector that has markers disabled:
		// returning through it would panic in the stub dispatcher.
		pass:  "markers",
		build: func(e *env) core.Collector { return newGen(e, core.Config{}) },
		corrupt: func(t *testing.T, c core.Collector, e *env) {
			fi := e.table.Register("victim", make([]rt.SlotTrace, 3), nil)
			e.stack.Call(fi)
			e.stack.SetRawSlot(e.stack.FrameBase(1), uint64(rt.StubKey))
		},
	},
	{
		// A pretenured-region object whose site the policy never tenured —
		// the silent misclassification the region invariant exists to catch.
		pass: "pretenure",
		build: func(e *env) core.Collector {
			pol := core.NewPretenurePolicy(map[obj.SiteID]core.PretenureDecision{3: {}})
			return newGen(e, core.Config{Pretenure: pol})
		},
		corrupt: func(t *testing.T, c core.Collector, e *env) {
			a := c.Alloc(obj.Record, 2, 3, 0)
			c.InitField(a, 0, 1)
			c.InitField(a, 1, 2)
			e.stack.SetSlot(1, uint64(a))
			c.Heap().Store(a, obj.PackHeader(obj.Record, 2, 9))
		},
	},
	{
		// A flipped mark/allocation bit: the heap, free lists, and roots
		// are all intact, so only the bitmap cross-check can see the
		// lost mark the next sweep would turn into a reclaimed live object.
		pass: "oldbitmap",
		build: func(e *env) core.Collector {
			return newGen(e, core.Config{OldCollector: core.OldMarkSweep})
		},
		corrupt: func(t *testing.T, c core.Collector, e *env) {
			consList(c, e, 1, 20, 1)
			c.Collect(true) // tenure the list under a fresh bitmap
			head := mem.Addr(e.stack.Slot(1))
			c.(*core.Generational).FlipOldMarkBit(head.Offset())
		},
	},
	{
		// A skewed free-word counter, as a dropped span-accounting update
		// would produce: spans and heap agree with each other but not
		// with the counter, so only the free-list pass fires.
		pass: "freelist",
		build: func(e *env) core.Collector {
			return newGen(e, core.Config{OldCollector: core.OldMarkSweep})
		},
		corrupt: func(t *testing.T, c core.Collector, e *env) {
			consList(c, e, 1, 20, 1)
			c.Collect(true)
			c.(*core.Generational).SkewOldFreeWords(3)
		},
	},
	{
		// Statistics that stopped reconciling: more major collections
		// than collections, as a dropped counter increment would produce.
		pass:  "costs",
		build: func(e *env) core.Collector { return newGen(e, core.Config{}) },
		corrupt: func(t *testing.T, c core.Collector, e *env) {
			consList(c, e, 1, 10, 1)
			c.Stats().NumMajor = c.Stats().NumGC + 3
		},
	},
}

// TestBrokenCollectors corrupts one invariant at a time and checks that
// exactly the matching sanitizer pass reports it and the other passes
// stay quiet. The quiet half is as load-bearing as the loud half: a pass
// that misfires on someone else's corruption would bury real signals.
func TestBrokenCollectors(t *testing.T) {
	for _, tc := range brokenCases {
		t.Run(tc.pass, func(t *testing.T) {
			e := newEnv(8)
			c := tc.build(e)
			w := sanitize.Wrap(c, sanitize.Options{})
			if vs := w.Check(); len(vs) != 0 {
				t.Fatalf("violations before corruption: %v", vs)
			}
			tc.corrupt(t, c, e)
			vs := w.Check()
			if len(vs) == 0 {
				t.Fatalf("%s corruption went undetected", tc.pass)
			}
			for _, v := range vs {
				if v.Pass != tc.pass {
					t.Errorf("pass %q misfired on %s corruption: %s", v.Pass, tc.pass, v)
				}
			}
		})
	}
}

// TestNonmovingCollectorsClean churns the non-moving old generations
// through tenure/drop/major cycles — building free spans, reusing them,
// and sliding over them — with every pass checked after each collection.
func TestNonmovingCollectorsClean(t *testing.T) {
	for _, oc := range []core.OldCollector{core.OldMarkSweep, core.OldMarkCompact} {
		t.Run(oc.String(), func(t *testing.T) {
			e := newEnv(8)
			c := newGen(e, core.Config{OldCollector: oc})
			w := sanitize.Wrap(c, sanitize.Options{}) // panics on any violation
			for round := 0; round < 4; round++ {
				consList(w, e, 1, 200, obj.SiteID(1+round))
				w.Collect(true)
				consList(w, e, 2, 50, 9)
				w.Collect(true)
				e.stack.SetSlot(1, uint64(mem.Nil))
				w.Collect(true) // slot-1 list dies tenured
				if vs := w.Check(); len(vs) != 0 {
					t.Fatalf("round %d: %v", round, vs)
				}
			}
		})
	}
}

// TestWrapperAutoCheck verifies the decorator actually runs the passes
// after operations that completed collections, and routes violations to
// the OnViolation hook.
func TestWrapperAutoCheck(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, core.Config{})
	var fired [][]sanitize.Violation
	w := sanitize.Wrap(c, sanitize.Options{OnViolation: func(vs []sanitize.Violation) {
		fired = append(fired, vs)
	}})
	consList(w, e, 1, 50, 1)
	before := w.Checks()
	c.Stats().NumMajor = c.Stats().NumGC + 7 // survives the upcoming minor GC
	w.Collect(false)
	if w.Checks() == before {
		t.Fatal("Collect through the wrapper performed no check")
	}
	if len(fired) == 0 {
		t.Fatal("OnViolation not called for a corrupted collector")
	}
	for _, v := range fired[0] {
		if v.Pass != "costs" {
			t.Errorf("unexpected violation: %s", v)
		}
	}
}

// TestWrapperPanicsByDefault verifies that without an OnViolation hook a
// failed automatic check panics with the rendered violation list.
func TestWrapperPanicsByDefault(t *testing.T) {
	e := newEnv(4)
	c := newGen(e, core.Config{})
	w := sanitize.Wrap(c, sanitize.Options{})
	consList(w, e, 1, 50, 1)
	c.Stats().NumMajor = c.Stats().NumGC + 7
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from automatic check")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "sanitize:") || !strings.Contains(msg, "costs") {
			t.Fatalf("panic message missing violation detail: %s", msg)
		}
	}()
	w.Collect(false)
}

// TestCheckOnUninspectableCollector verifies the sanitizer reports — not
// ignores — a collector it cannot see inside.
func TestCheckOnUninspectableCollector(t *testing.T) {
	vs := sanitize.Check(opaqueCollector{})
	if len(vs) != 1 || vs[0].Pass != "inspect" {
		t.Fatalf("got %v, want a single inspect violation", vs)
	}
}

// opaqueCollector implements core.Collector but not core.Inspectable.
type opaqueCollector struct{}

func (opaqueCollector) Alloc(obj.Kind, uint64, obj.SiteID, uint64) mem.Addr { return mem.Nil }
func (opaqueCollector) LoadField(mem.Addr, uint64) uint64                   { return 0 }
func (opaqueCollector) StoreField(mem.Addr, uint64, uint64, bool)           {}
func (opaqueCollector) InitField(mem.Addr, uint64, uint64)                  {}
func (opaqueCollector) Collect(bool)                                        {}
func (opaqueCollector) Stats() *core.GCStats                                { return &core.GCStats{} }
func (opaqueCollector) Heap() *mem.Heap                                     { return nil }
func (opaqueCollector) Name() string                                        { return "opaque" }
func (opaqueCollector) Threads() *rt.ThreadSet                              { return nil }
