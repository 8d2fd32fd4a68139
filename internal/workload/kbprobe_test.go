package workload

import (
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/rt"
)

func TestKBAssocRewriteProbe(t *testing.T) {
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	col := core.NewGenerational(stack, meter, nil, core.Config{
		BudgetWords: 1 << 22, NurseryWords: 8 * 1024,
	})
	m := NewMutator(col, stack, table, meter)
	e := &kbEngine{m: m}
	e.norm = m.PtrFrame("kb_norm", 6)
	e.match = m.PtrFrame("kb_match", 5)
	e.subst = m.PtrFrame("kb_subst", 4)
	e.unify = m.PtrFrame("kb_unify", 5)
	e.eq = m.PtrFrame("kb_eq", 4)
	e.walk = m.PtrFrame("kb_walk", 3)
	e.epoch = 1
	main := m.PtrFrame("kb_main", 8)

	m.Call(main, func() {
		// Build assoc rule: (x·y)·z → x·(y·z), rules list in slot 1.
		m.SetSlotNil(1)
		x, y, z := uint64(kbVarBase), uint64(kbVarBase+1), uint64(kbVarBase+2)
		e.mkLeaf(kbSiteTerm, kbVar, x, 3)
		e.mkLeaf(kbSiteTerm, kbVar, y, 4)
		e.mkMul(kbSiteTerm, 3, 4, 5)
		e.mkLeaf(kbSiteTerm, kbVar, z, 6)
		e.mkMul(kbSiteTerm, 5, 6, 5) // (x·y)·z
		e.mkLeaf(kbSiteTerm, kbVar, y, 4)
		e.mkLeaf(kbSiteTerm, kbVar, z, 6)
		e.mkMul(kbSiteTerm, 4, 6, 6)
		e.mkMul(kbSiteTerm, 3, 6, 6) // x·(y·z)
		m.AllocRecord(kbSiteRule, 2, 0b11, 8)
		m.InitPtrField(8, 0, 5)
		m.InitPtrField(8, 1, 6)
		m.ConsPtr(kbSiteRule, 8, 1, 1)

		// Term: (a·b)·a
		e.mkLeaf(kbSiteTerm, kbConst, kbA, 3)
		e.mkLeaf(kbSiteTerm, kbConst, kbB, 4)
		e.mkMul(kbSiteTerm, 3, 4, 5)
		e.mkLeaf(kbSiteTerm, kbConst, kbA, 4)
		e.mkMul(kbSiteTerm, 5, 4, 3)

		e.budget = 100
		e.budgetRaise = false
		m.CallArgs(e.norm, []int{3, 1}, func() { e.normBody() })
		m.TakeRet(3)

		// Expect a·(b·a): root MUL with left leaf a.
		if e.tag(3) != kbMul {
			t.Fatalf("root tag = %d", e.tag(3))
		}
		m.LoadField(3, 1, 4)
		if e.tag(4) != kbConst || m.LoadFieldInt(4, 1) != kbA {
			t.Fatalf("assoc rewrite did not fire: left tag=%d", e.tag(4))
		}
		if e.budget == 100 {
			t.Fatal("no budget consumed")
		}
	})
}
