package workload

import (
	"strings"
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
	"tilgc/internal/sanitize"
)

func newTestMutator(t *testing.T) *Mutator {
	t.Helper()
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	col := core.NewGenerational(stack, meter, nil, core.Config{
		BudgetWords: 1 << 20, NurseryWords: 512,
	})
	return NewMutator(col, stack, table, meter)
}

func TestMutatorCallArgsCopiesValues(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 3)
	m.Call(f, func() {
		m.SetSlot(1, 0xa)
		m.SetSlot(2, 0xb)
		m.CallArgs(f, []int{2, 1}, func() {
			if m.Slot(1) != 0xb || m.Slot(2) != 0xa {
				t.Fatal("args not copied in order")
			}
			if m.Slot(3) != 0 {
				t.Fatal("extra slot not zeroed")
			}
		})
		if m.Slot(1) != 0xa {
			t.Fatal("caller slots disturbed")
		}
	})
}

func TestMutatorRetPtrTakeRet(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 2)
	m.Call(f, func() {
		m.AllocRecord(1, 1, 0, 1)
		m.InitIntField(1, 0, 77)
		m.Call(f, func() {
			m.AllocRecord(1, 1, 0, 1)
			m.InitIntField(1, 0, 88)
			m.RetPtr(1)
		})
		m.TakeRet(2)
		if m.LoadFieldInt(2, 0) != 88 {
			t.Fatal("returned pointer wrong")
		}
		if m.LoadFieldInt(1, 0) != 77 {
			t.Fatal("own slot disturbed")
		}
	})
}

func TestMutatorRetIntTakeRetInt(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 1)
	m.Call(f, func() {
		m.Call(f, func() { m.RetInt(12345) })
		if m.TakeRetInt() != 12345 {
			t.Fatal("int return lost")
		}
	})
}

func TestMutatorTryCatchNested(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 1)
	order := ""
	m.Call(f, func() {
		m.TryCatch(func() {
			m.TryCatch(func() {
				m.Call(f, func() { m.Raise() })
				if m.Raising() {
					return
				}
				order += "x" // unreachable
			}, func() {
				order += "inner"
				m.Raise() // re-raise to the outer handler
			})
			if m.Raising() {
				return
			}
			order += "y" // unreachable
		}, func() {
			order += "+outer"
		})
	})
	if order != "inner+outer" {
		t.Fatalf("handler order = %q", order)
	}
	if m.Stack.Depth() != 0 || m.Stack.HandlerDepth() != 0 {
		t.Fatalf("stack state corrupted after nested raise: depth=%d handlers=%d",
			m.Stack.Depth(), m.Stack.HandlerDepth())
	}
}

func TestMutatorTryCatchNormalExitPopsHandler(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 1)
	m.Call(f, func() {
		m.TryCatch(func() {}, func() { t.Fatal("handler ran without raise") })
		if m.Stack.HandlerDepth() != 0 {
			t.Fatal("handler leaked")
		}
	})
}

func TestMutatorCallArgsDoesNotAllocate(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 5)
	args := []int{5, 4, 3, 2, 1}
	body := func() {}
	m.Call(f, func() {
		if n := testing.AllocsPerRun(100, func() { m.CallArgs(f, args, body) }); n != 0 {
			t.Fatalf("CallArgs with 5 arguments allocates %v times per call", n)
		}
	})
}

// TestMutatorMissedRaisingCheckPanics enters each guarded entry point
// with an exception in flight, as code that forgot to return after Raise
// or to check Raising() would, and expects a panic naming the contract.
func TestMutatorMissedRaisingCheckPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(m *Mutator, f *rt.FrameInfo)
	}{
		{"Call", func(m *Mutator, f *rt.FrameInfo) { m.Call(f, func() {}) }},
		{"CallArgs", func(m *Mutator, f *rt.FrameInfo) { m.CallArgs(f, []int{1}, func() {}) }},
		{"TryCatch", func(m *Mutator, f *rt.FrameInfo) { m.TryCatch(func() {}, func() {}) }},
		{"Raise", func(m *Mutator, f *rt.FrameInfo) { m.Raise() }},
		{"TakeRet", func(m *Mutator, f *rt.FrameInfo) { m.TakeRet(1) }},
		{"TakeRetInt", func(m *Mutator, f *rt.FrameInfo) { m.TakeRetInt() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMutator(t)
			f := m.PtrFrame("f", 1)
			var msg string
			m.Call(f, func() {
				m.TryCatch(func() {
					m.Call(f, func() { m.Raise() })
					func() {
						defer func() { msg, _ = recover().(string) }()
						tc.op(m, f)
					}()
				}, func() {})
			})
			if !strings.Contains(msg, tc.name+" called while a simulated exception is in flight") ||
				!strings.Contains(msg, "Raising()") {
				t.Fatalf("missed check panicked with %q", msg)
			}
		})
	}
}

// TestMutatorDeepUnwindPastMarkers raises from 800 frames deep after the
// collector has placed stack markers in those frames, then collects with
// the sanitizer verifying the heap after every collection.
func TestMutatorDeepUnwindPastMarkers(t *testing.T) {
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	gen := core.NewGenerational(stack, meter, nil, core.Config{
		BudgetWords: 1 << 20, NurseryWords: 512, MarkerN: 25,
	})
	col := sanitize.Wrap(gen, nil)
	m := NewMutator(col, stack, table, meter)
	mainF := m.PtrFrame("main", 3)
	deep := m.PtrFrame("deep", 1)
	const depth, cells = 800, 200

	markersAtRaise := uint64(0)
	caught := false
	m.Call(mainF, func() {
		m.SetSlotNil(1)
		for i := uint64(0); i < cells; i++ {
			m.ConsInt(9, i, 1, 1)
		}
		m.TryCatch(func() {
			var descend func(d int)
			descend = func(d int) {
				m.Call(deep, func() {
					m.AllocRecord(9, 2, 0, 1)
					if d < depth {
						descend(d + 1)
						return
					}
					markersAtRaise = gen.Stats().MarkersPlaced
					m.Raise()
				})
			}
			descend(0)
			if m.Raising() {
				return
			}
			t.Error("code after a raising call ran")
		}, func() {
			caught = true
			if m.Stack.Depth() != 1 || m.Stack.HandlerDepth() != 0 || m.Stack.RaiseMark() != 1 {
				t.Errorf("in handler: depth=%d handlers=%d raise mark=%d, want 1, 0, 1",
					m.Stack.Depth(), m.Stack.HandlerDepth(), m.Stack.RaiseMark())
			}
		})
		if m.Raising() {
			t.Fatal("exception still in flight after its handler ran")
		}
		col.Collect(false)
		col.Collect(true)
		if n := m.ListLen(1, 2); n != cells {
			t.Fatalf("list length after deep unwind = %d, want %d", n, cells)
		}
	})
	if !caught {
		t.Fatal("exception not caught")
	}
	if markersAtRaise == 0 {
		t.Fatal("no stack markers placed before the raise")
	}
	if vs := col.Check(); len(vs) != 0 {
		t.Fatalf("sanitizer violations after deep unwind: %v", vs)
	}
	if col.Checks() < 3 {
		t.Fatalf("sanitizer ran %d checks, want one per collection", col.Checks())
	}
	if m.Stack.Depth() != 0 || m.Stack.HandlerDepth() != 0 {
		t.Fatalf("after return: depth=%d handlers=%d", m.Stack.Depth(), m.Stack.HandlerDepth())
	}
}

func TestMutatorConsListHelpers(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 3)
	m.Call(f, func() {
		m.SetSlotNil(1)
		for i := uint64(1); i <= 5; i++ {
			m.ConsInt(9, i, 1, 1)
		}
		if n := m.ListLen(1, 2); n != 5 {
			t.Fatalf("ListLen = %d", n)
		}
		if m.HeadInt(1) != 5 {
			t.Fatal("head wrong")
		}
		m.Tail(1, 2)
		if m.HeadInt(2) != 4 {
			t.Fatal("tail wrong")
		}
		// ConsPtr shares structure.
		m.ConsPtr(9, 2, 1, 3)
		m.Head(3, 3)
		if m.HeadInt(3) != 4 {
			t.Fatal("ConsPtr head wrong")
		}
	})
}

func TestMutatorFieldHelpersBarrier(t *testing.T) {
	m := newTestMutator(t)
	g := m.Col.(*core.Generational)
	f := m.PtrFrame("f", 3)
	m.Call(f, func() {
		m.AllocRecord(1, 2, 0b01, 1)
		m.AllocRecord(1, 1, 0, 2)
		before := g.PointerUpdates()
		m.StorePtrField(1, 0, 2) // barriered
		if g.PointerUpdates() != before+1 {
			t.Fatal("pointer store not barriered")
		}
		m.StoreIntField(1, 1, 42) // not barriered
		if g.PointerUpdates() != before+1 {
			t.Fatal("int store barriered")
		}
		m.InitPtrField(1, 0, 2) // initializing: not barriered
		if g.PointerUpdates() != before+1 {
			t.Fatal("init store barriered")
		}
		if m.LoadFieldInt(1, 1) != 42 {
			t.Fatal("field value lost")
		}
		m.LoadField(1, 0, 3)
		if m.SlotAddr(3) != m.SlotAddr(2) {
			t.Fatal("pointer field load wrong")
		}
	})
}

func TestMutatorAuxRoundTrip(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 1)
	m.Call(f, func() {
		m.AllocRecord(1, 2, 0, 1)
		if m.Aux(1) != 0 {
			t.Fatal("fresh object aux not zero")
		}
		m.SetAux(1, 201)
		if m.Aux(1) != 201 {
			t.Fatal("aux round trip failed")
		}
		// Aux must survive a collection (it lives in the copied header).
		m.Col.Collect(false)
		if m.Aux(1) != 201 {
			t.Fatal("aux lost in collection")
		}
		// And must not corrupt the object.
		o := obj.Decode(m.Col.Heap(), m.SlotAddr(1))
		if o.Kind != obj.Record || o.Len != 2 || o.Site != 1 {
			t.Fatalf("aux write corrupted header: %+v", o)
		}
	})
}

func TestMutatorWorkCharges(t *testing.T) {
	m := newTestMutator(t)
	before := m.Meter.Get(costmodel.Client)
	m.Work(100)
	if m.Meter.Get(costmodel.Client) != before+100*costmodel.ClientWork {
		t.Fatal("Work charged wrong amount")
	}
}

func TestMutatorFrameRegs(t *testing.T) {
	m := newTestMutator(t)
	regs := make([]rt.SlotTrace, rt.NumRegs)
	regs[2] = rt.PTR()
	f := m.FrameRegs("f", regs, rt.PTR())
	m.Call(f, func() {
		m.AllocRecord(1, 1, 0, 1)
		m.InitIntField(1, 0, 5)
		m.Stack.SetReg(2, m.Slot(1))
		m.Col.Collect(false)
		if mem.Addr(m.Stack.Reg(2)) != m.SlotAddr(1) {
			t.Fatal("register root not forwarded with slot")
		}
	})
}
