package workload

import (
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// KnuthBendix is an implementation of the Knuth-Bendix completion
// algorithm running on group axioms, followed by normalization of long
// generator products with the completed system. Terms are heap records;
// matching, substitution, unification, critical-pair extraction, and
// innermost normalization are all recursive, so normalizing a deep
// left-associated product keeps thousands of activation records live
// across many collections — the paper's flagship deep-stack benchmark
// (Table 2: max 4234 frames, average 1336.5, but only 116.9 new frames
// per collection; Table 5: stack scanning is 76% of GC cost, cut 67.5%
// by stack markers). The accumulated rule set and retained normal forms
// are the long-lived data that make pretenuring effective (Table 6: 71%
// less copying). Match and unification failures raise simulated ML
// exceptions, exercising the §5 watermark machinery.
type kbBench struct{}

// Knuth-Bendix's allocation sites.
const (
	kbSiteTerm  obj.SiteID = 500 + iota // rewriting temporaries (die young)
	kbSiteSubst                         // substitution bindings (die young)
	kbSiteKeep                          // kept rule/normal-form terms (long-lived)
	kbSiteRule                          // rule records and rule-list spine (long-lived)
	kbSiteProd                          // product construction cells
)

func init() { register(kbBench{}) }

func (kbBench) Name() string { return "Knuth-Bendix" }

func (kbBench) Description() string {
	return "An implementation of the Knuth-Bendix completion algorithm"
}

func (kbBench) Sites() map[obj.SiteID]string {
	return map[obj.SiteID]string{
		kbSiteTerm:  "rewrite temporary term",
		kbSiteSubst: "substitution binding",
		kbSiteKeep:  "kept term (rules, normal forms)",
		kbSiteRule:  "rule record / list spine",
		kbSiteProd:  "product construction",
	}
}

// OnlyOldSites: kept terms reference only kept terms (rules are deep-
// copied on acceptance), mirroring the paper's manual analysis for
// pretenured data that needs no region scan.
func (kbBench) OnlyOldSites() []obj.SiteID {
	return []obj.SiteID{kbSiteKeep, kbSiteRule}
}

// Term tags.
const (
	kbConst uint64 = iota // [tag, id]           no pointer fields
	kbVar                 // [tag, id]           no pointer fields
	kbInv                 // [tag, child]        mask 0b10
	kbMul                 // [tag, left, right]  mask 0b110
)

// Constant ids; variables use ids ≥ kbVarBase.
const (
	kbE       = 0 // group identity
	kbA       = 1
	kbB       = 2
	kbVarBase = 1000
)

// kbEngine carries the registered frames and the recursive bodies.
type kbEngine struct {
	m *Mutator

	norm, match, subst, unify, eq, walk, cp *rt.FrameInfo

	budget      int  // rewrite steps left for the current normalization
	budgetRaise bool // raise (instead of stopping) when exhausted

	// epoch stamps terms known to be in normal form with respect to the
	// current rule set (via the object aux byte); adding a rule bumps the
	// epoch, invalidating all stamps. Real term-rewriting systems memoize
	// normal forms the same way.
	epoch uint8
}

func (e *kbEngine) tag(slot int) uint64 { return e.m.LoadFieldInt(slot, 0) }

// Term constructors (dst must differ from the source slots only when the
// helper says so).

func (e *kbEngine) mkLeaf(site obj.SiteID, tg, id uint64, dst int) {
	e.m.AllocRecord(site, 2, 0, dst)
	e.m.InitIntField(dst, 0, tg)
	e.m.InitIntField(dst, 1, id)
}

func (e *kbEngine) mkInv(site obj.SiteID, child, dst int) {
	a := e.m.Col.Alloc(obj.Record, 2, site, 0b10)
	e.m.Col.InitField(a, 0, kbInv)
	e.m.Col.InitField(a, 1, e.m.Slot(child))
	e.m.SetSlot(dst, uint64(a))
}

func (e *kbEngine) mkMul(site obj.SiteID, l, r, dst int) {
	a := e.m.Col.Alloc(obj.Record, 3, site, 0b110)
	e.m.Col.InitField(a, 0, kbMul)
	e.m.Col.InitField(a, 1, e.m.Slot(l))
	e.m.Col.InitField(a, 2, e.m.Slot(r))
	e.m.SetSlot(dst, uint64(a))
}

// ---- Structural equality ----------------------------------------------------

// eqBody compares the terms in slots 1 and 2 (frame: a, b, ca, cb).
func (e *kbEngine) eqBody(out *bool) {
	m := e.m
	ta, tb := e.tag(1), e.tag(2)
	m.Work(2)
	if ta != tb {
		*out = false
		return
	}
	switch ta {
	case kbConst, kbVar:
		*out = m.LoadFieldInt(1, 1) == m.LoadFieldInt(2, 1)
	case kbInv:
		m.LoadField(1, 1, 3)
		m.LoadField(2, 1, 4)
		m.CallArgs(e.eq, []int{3, 4}, func() { e.eqBody(out) })
	case kbMul:
		m.LoadField(1, 1, 3)
		m.LoadField(2, 1, 4)
		sub := false
		m.CallArgs(e.eq, []int{3, 4}, func() { e.eqBody(&sub) })
		if !sub {
			*out = false
			return
		}
		m.LoadField(1, 2, 3)
		m.LoadField(2, 2, 4)
		m.CallArgs(e.eq, []int{3, 4}, func() { e.eqBody(out) })
	}
}

func (e *kbEngine) eqTerms(aSlot, bSlot int) bool {
	out := false
	e.m.CallArgs(e.eq, []int{aSlot, bSlot}, func() { e.eqBody(&out) })
	return out
}

// ---- Matching ----------------------------------------------------------------
//
// matchBody matches the pattern in slot 1 against the term in slot 2 under
// the substitution in slot 3 (assoc list of [varid, term, next]); it
// RAISES on mismatch (exception Match) and returns the extended
// substitution via RetPtr. Frame slots: pat, term, σ, s4, s5.

func (e *kbEngine) matchBody() {
	m := e.m
	m.Work(2)
	switch e.tag(1) {
	case kbVar:
		id := m.LoadFieldInt(1, 1)
		// Look id up in σ.
		m.SetSlot(4, m.Slot(3))
		for !m.IsNil(4) {
			if m.LoadFieldInt(4, 0) == id {
				m.LoadField(4, 1, 4)
				if !e.eqTerms(4, 2) {
					m.Raise()
					return
				}
				m.RetPtr(3)
				return
			}
			m.LoadField(4, 2, 4)
		}
		// Unbound: extend σ.
		a := m.Col.Alloc(obj.Record, 3, kbSiteSubst, 0b110)
		m.Col.InitField(a, 0, id)
		m.Col.InitField(a, 1, m.Slot(2))
		m.Col.InitField(a, 2, m.Slot(3))
		m.SetSlot(3, uint64(a))
		m.RetPtr(3)
	case kbConst:
		if e.tag(2) != kbConst || m.LoadFieldInt(1, 1) != m.LoadFieldInt(2, 1) {
			m.Raise()
			return
		}
		m.RetPtr(3)
	case kbInv:
		if e.tag(2) != kbInv {
			m.Raise()
			return
		}
		m.LoadField(1, 1, 4)
		m.LoadField(2, 1, 5)
		m.CallArgs(e.match, []int{4, 5, 3}, func() { e.matchBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(3)
		m.RetPtr(3)
	case kbMul:
		if e.tag(2) != kbMul {
			m.Raise()
			return
		}
		m.LoadField(1, 1, 4)
		m.LoadField(2, 1, 5)
		m.CallArgs(e.match, []int{4, 5, 3}, func() { e.matchBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(3)
		m.LoadField(1, 2, 4)
		m.LoadField(2, 2, 5)
		m.CallArgs(e.match, []int{4, 5, 3}, func() { e.matchBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(3)
		m.RetPtr(3)
	}
}

// ---- Substitution ------------------------------------------------------------
//
// substBody instantiates the term in slot 1 under σ in slot 2, building at
// `site`, returning via RetPtr. Frame slots: t, σ, l, r.
//
// deep selects how variable bindings are applied. A substitution produced
// by *matching* binds rule variables to literal subterms of the rewritten
// term and must be applied shallowly (the bindings may themselves contain
// variables of the term, which are NOT in σ's domain conceptually — deep
// application would capture them). A substitution produced by
// *unification* is triangular — bindings can contain variables bound
// elsewhere in σ — and must be applied to a fixpoint; the occurs check
// guarantees termination.

func (e *kbEngine) substBody(site obj.SiteID, deep bool) {
	m := e.m
	m.Work(1)
	switch e.tag(1) {
	case kbConst:
		m.RetPtr(1)
	case kbVar:
		id := m.LoadFieldInt(1, 1)
		m.SetSlot(3, m.Slot(2))
		for !m.IsNil(3) {
			if m.LoadFieldInt(3, 0) == id {
				m.LoadField(3, 1, 3)
				if deep {
					m.CallArgs(e.subst, []int{3, 2}, func() { e.substBody(site, true) })
					m.TakeRet(3)
				}
				m.RetPtr(3)
				return
			}
			m.LoadField(3, 2, 3)
		}
		m.RetPtr(1) // unbound variables stay
	case kbInv:
		m.LoadField(1, 1, 3)
		m.CallArgs(e.subst, []int{3, 2}, func() { e.substBody(site, deep) })
		m.TakeRet(3)
		e.mkInv(site, 3, 3)
		m.RetPtr(3)
	case kbMul:
		m.LoadField(1, 1, 3)
		m.CallArgs(e.subst, []int{3, 2}, func() { e.substBody(site, deep) })
		m.TakeRet(3)
		m.LoadField(1, 2, 4)
		m.CallArgs(e.subst, []int{4, 2}, func() { e.substBody(site, deep) })
		m.TakeRet(4)
		e.mkMul(site, 3, 4, 3)
		m.RetPtr(3)
	}
}

// ---- Copying, renaming, measuring ---------------------------------------------

// copyBody deep-copies the term in slot 1 at `site`, adding varDelta to
// variable ids. Frame slots: t, l, r.
func (e *kbEngine) copyBody(site obj.SiteID, varDelta uint64) {
	m := e.m
	switch e.tag(1) {
	case kbConst:
		e.mkLeaf(site, kbConst, m.LoadFieldInt(1, 1), 2)
		m.RetPtr(2)
	case kbVar:
		e.mkLeaf(site, kbVar, m.LoadFieldInt(1, 1)+varDelta, 2)
		m.RetPtr(2)
	case kbInv:
		m.LoadField(1, 1, 2)
		m.CallArgs(e.walk, []int{2}, func() { e.copyBody(site, varDelta) })
		m.TakeRet(2)
		e.mkInv(site, 2, 2)
		m.RetPtr(2)
	case kbMul:
		m.LoadField(1, 1, 2)
		m.CallArgs(e.walk, []int{2}, func() { e.copyBody(site, varDelta) })
		m.TakeRet(2)
		m.LoadField(1, 2, 3)
		m.CallArgs(e.walk, []int{3}, func() { e.copyBody(site, varDelta) })
		m.TakeRet(3)
		e.mkMul(site, 2, 3, 2)
		m.RetPtr(2)
	}
}

// measure computes (weight, leftSpineDepth, varMask) of the term in the
// given slot of the CURRENT frame, walking with simulated frames.
func (e *kbEngine) measure(slot int) (weight, spine int, vars uint64) {
	m := e.m
	var body func(depth int)
	body = func(depth int) {
		weight++
		m.Work(1)
		switch e.tag(1) {
		case kbVar:
			vars |= 1 << (m.LoadFieldInt(1, 1) - kbVarBase)
			if depth+1 > spine {
				spine = depth + 1
			}
		case kbConst:
			if depth+1 > spine {
				spine = depth + 1
			}
		case kbInv:
			m.LoadField(1, 1, 2)
			m.CallArgs(e.walk, []int{2}, func() { body(depth) })
		case kbMul:
			m.LoadField(1, 1, 2)
			m.CallArgs(e.walk, []int{2}, func() { body(depth + 1) })
			m.LoadField(1, 2, 2)
			m.CallArgs(e.walk, []int{2}, func() { body(depth) })
		}
	}
	m.CallArgs(e.walk, []int{slot}, func() { body(0) })
	return weight, spine, vars
}

// ---- Unification ---------------------------------------------------------------
//
// unifyBody unifies slots 1 and 2 under σ in slot 3, raising on clash or
// occurs-check failure; returns σ' via RetPtr. Frame: s, t, σ, s4, s5.

func (e *kbEngine) deref(slot, sigmaSlot int) {
	m := e.m
	for e.tag(slot) == kbVar {
		id := m.LoadFieldInt(slot, 1)
		found := false
		m.SetSlot(5, m.Slot(sigmaSlot))
		for !m.IsNil(5) {
			if m.LoadFieldInt(5, 0) == id {
				m.LoadField(5, 1, slot)
				found = true
				break
			}
			m.LoadField(5, 2, 5)
		}
		if !found {
			return
		}
	}
}

// occurs reports whether variable id occurs in the term in `slot`
// (after derefing through σ in sigmaSlot).
func (e *kbEngine) occurs(id uint64, slot, sigmaSlot int) bool {
	m := e.m
	out := false
	var body func()
	body = func() {
		e.deref(1, 2)
		switch e.tag(1) {
		case kbVar:
			if m.LoadFieldInt(1, 1) == id {
				out = true
			}
		case kbInv:
			m.LoadField(1, 1, 3)
			m.CallArgs(e.unify, []int{3, 2}, body)
		case kbMul:
			if !out {
				m.LoadField(1, 1, 3)
				m.CallArgs(e.unify, []int{3, 2}, body)
			}
			if !out {
				m.LoadField(1, 2, 3)
				m.CallArgs(e.unify, []int{3, 2}, body)
			}
		}
	}
	m.CallArgs(e.unify, []int{slot, sigmaSlot}, body)
	return out
}

func (e *kbEngine) unifyBody() {
	m := e.m
	m.Work(2)
	e.deref(1, 3)
	e.deref(2, 3)
	bind := func(varSlot, termSlot int) {
		id := m.LoadFieldInt(varSlot, 1)
		if e.tag(termSlot) == kbVar && m.LoadFieldInt(termSlot, 1) == id {
			m.RetPtr(3)
			return
		}
		if e.occurs(id, termSlot, 3) {
			m.Raise()
			return
		}
		a := m.Col.Alloc(obj.Record, 3, kbSiteSubst, 0b110)
		m.Col.InitField(a, 0, id)
		m.Col.InitField(a, 1, m.Slot(termSlot))
		m.Col.InitField(a, 2, m.Slot(3))
		m.SetSlot(3, uint64(a))
		m.RetPtr(3)
	}
	ts, tt := e.tag(1), e.tag(2)
	switch {
	case ts == kbVar:
		bind(1, 2)
	case tt == kbVar:
		bind(2, 1)
	case ts != tt:
		m.Raise()
		return
	case ts == kbConst:
		if m.LoadFieldInt(1, 1) != m.LoadFieldInt(2, 1) {
			m.Raise()
			return
		}
		m.RetPtr(3)
	case ts == kbInv:
		m.LoadField(1, 1, 4)
		m.LoadField(2, 1, 5)
		m.CallArgs(e.unify, []int{4, 5, 3}, func() { e.unifyBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(3)
		m.RetPtr(3)
	default: // MUL
		m.LoadField(1, 1, 4)
		m.LoadField(2, 1, 5)
		m.CallArgs(e.unify, []int{4, 5, 3}, func() { e.unifyBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(3)
		m.LoadField(1, 2, 4)
		m.LoadField(2, 2, 5)
		m.CallArgs(e.unify, []int{4, 5, 3}, func() { e.unifyBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(3)
		m.RetPtr(3)
	}
}

// ---- Normalization ---------------------------------------------------------------
//
// normBody normalizes the term in slot 1 with the rules in slot 2
// (innermost), returning via RetPtr. Frame: t, rules, l, r, σ, cursor.
// Rewriting is budgeted: when the budget runs out the engine either stops
// rewriting (budgetRaise=false) or raises a resource exception caught at
// the product level — the deep unwind past stack markers of §5.

func (e *kbEngine) normBody() {
	m := e.m
	// Memoized: terms stamped with the current epoch are already normal.
	if m.Aux(1) == e.epoch {
		m.RetPtr(1)
		return
	}
	switch e.tag(1) {
	case kbConst, kbVar:
		m.SetAux(1, e.epoch)
		m.RetPtr(1)
		return
	case kbInv:
		m.LoadField(1, 1, 3)
		m.CallArgs(e.norm, []int{3, 2}, func() { e.normBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(3)
		e.mkInv(kbSiteTerm, 3, 1)
	case kbMul:
		m.LoadField(1, 1, 3)
		m.CallArgs(e.norm, []int{3, 2}, func() { e.normBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(3)
		m.LoadField(1, 2, 4)
		m.CallArgs(e.norm, []int{4, 2}, func() { e.normBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(4)
		e.mkMul(kbSiteTerm, 3, 4, 1)
	}
	// Root rewriting: children are now normal; try each rule at the root.
	if e.budget <= 0 {
		if e.budgetRaise {
			m.Raise()
			return
		}
		m.RetPtr(1) // budget-starved: NOT stamped (may not be normal)
		return
	}
	rewritten := false
	m.SetSlot(6, m.Slot(2)) // rule-list cursor
	for !m.IsNil(6) {
		m.Head(6, 3) // rule record [lhs, rhs]
		// Cheap root-shape prefilter (rule indexing by top symbol, as
		// real implementations do) so the exception path only fires on
		// genuine deep mismatches.
		m.LoadField(3, 0, 4) // lhs
		if !e.shapeMatches(4, 1) {
			m.Tail(6, 6)
			continue
		}
		matched := false
		m.TryCatch(func() {
			m.SetSlotNil(5)
			m.CallArgs(e.match, []int{4, 1, 5}, func() { e.matchBody() })
			if m.Raising() {
				return
			}
			m.TakeRet(5) // sigma
			matched = true
		}, func() {
			matched = false
		})
		if matched {
			e.budget--
			m.LoadField(3, 1, 4) // rhs
			m.CallArgs(e.subst, []int{4, 5}, func() { e.substBody(kbSiteTerm, false) })
			m.TakeRet(1)
			rewritten = true
			break
		}
		m.Tail(6, 6)
	}
	if rewritten {
		// The rewrite may expose further redexes below the root.
		m.CallArgs(e.norm, []int{1, 2}, func() { e.normBody() })
		if m.Raising() {
			return
		}
		m.TakeRet(1)
	} else {
		m.SetAux(1, e.epoch)
	}
	m.RetPtr(1)
}

// shapeMatches is the O(1) rule prefilter: the pattern's root (and, for a
// MUL pattern, its children's) constructor classes must be compatible
// with the term's before a full match is attempted.
func (e *kbEngine) shapeMatches(patSlot, termSlot int) bool {
	m := e.m
	m.Work(2)
	pt := e.tag(patSlot)
	if pt == kbVar {
		return true
	}
	tt := e.tag(termSlot)
	if pt != tt {
		return false
	}
	if pt == kbConst {
		return m.LoadFieldInt(patSlot, 1) == m.LoadFieldInt(termSlot, 1)
	}
	if pt != kbMul {
		return true
	}
	// Compare the left children's constructor classes.
	pl := m.LoadFieldInt(patSlot, 1)  // address of pattern left child
	tl := m.LoadFieldInt(termSlot, 1) // address of term left child
	plTag := m.Col.LoadField(mem.Addr(pl), 0)
	tlTag := m.Col.LoadField(mem.Addr(tl), 0)
	if plTag == kbVar {
		return true
	}
	return plTag == tlTag
}

// ---- Critical pairs ----------------------------------------------------------

// subtermAt stores the k-th non-variable subterm (preorder) of the term
// in srcSlot into the box record in boxSlot, reporting whether such a
// position exists. The box keeps the extracted pointer GC-safe.
func (e *kbEngine) subtermAt(srcSlot, boxSlot int, k int) bool {
	m := e.m
	cnt := 0
	found := false
	var body func()
	body = func() { // walk frame: t, box, child
		if found || e.tag(1) == kbVar {
			m.Work(1)
			return
		}
		if cnt == k {
			cnt++
			found = true
			m.StorePtrField(2, 0, 1)
			return
		}
		cnt++
		switch e.tag(1) {
		case kbInv:
			m.LoadField(1, 1, 3)
			m.CallArgs(e.walk, []int{3, 2}, body)
		case kbMul:
			m.LoadField(1, 1, 3)
			m.CallArgs(e.walk, []int{3, 2}, body)
			if !found {
				m.LoadField(1, 2, 3)
				m.CallArgs(e.walk, []int{3, 2}, body)
			}
		}
	}
	m.CallArgs(e.walk, []int{srcSlot, boxSlot}, body)
	return found
}

// replaceAt rebuilds the term in slot 1 with its k-th non-variable
// subterm (preorder) replaced by the term in slot 2, returning via
// RetPtr. Frame: t, repl, l, r. The Go counter threads the position.
func (e *kbEngine) replaceAt(cnt *int, k int) {
	m := e.m
	if e.tag(1) != kbVar {
		if *cnt == k {
			*cnt++
			m.RetPtr(2)
			return
		}
		*cnt++
	}
	switch e.tag(1) {
	case kbVar, kbConst:
		m.RetPtr(1)
	case kbInv:
		m.LoadField(1, 1, 3)
		m.CallArgs(e.subst, []int{3, 2}, func() { e.replaceAt(cnt, k) })
		m.TakeRet(3)
		e.mkInv(kbSiteTerm, 3, 3)
		m.RetPtr(3)
	case kbMul:
		m.LoadField(1, 1, 3)
		m.CallArgs(e.subst, []int{3, 2}, func() { e.replaceAt(cnt, k) })
		m.TakeRet(3)
		m.LoadField(1, 2, 4)
		m.CallArgs(e.subst, []int{4, 2}, func() { e.replaceAt(cnt, k) })
		m.TakeRet(4)
		e.mkMul(kbSiteTerm, 3, 4, 3)
		m.RetPtr(3)
	}
}

// ---- The benchmark driver -----------------------------------------------------

func (kbBench) Run(m *Mutator, scale Scale) Result {
	e := &kbEngine{m: m}
	// Frame layouts (slot 0 is always the return key).
	e.norm = m.PtrFrame("kb_norm", 6)
	e.match = m.PtrFrame("kb_match", 5)
	e.subst = m.PtrFrame("kb_subst", 4)
	e.unify = m.PtrFrame("kb_unify", 5)
	e.eq = m.PtrFrame("kb_eq", 4)
	e.walk = m.PtrFrame("kb_walk", 3)
	e.cp = m.PtrFrame("kb_cp", 8)
	e.epoch = 1
	main := m.PtrFrame("kb_main", 8)

	var check uint64
	m.Call(main, func() {
		// main slots: 1=rules, 2=results, 3..8 scratch.
		m.SetSlotNil(1)
		ruleCount := 0

		// addRule keeps deep copies of the terms in lhsSlot/rhsSlot and
		// conses a rule record onto the rules list.
		addRule := func(lhsSlot, rhsSlot int) {
			m.CallArgs(e.walk, []int{lhsSlot}, func() { e.copyBody(kbSiteKeep, 0) })
			m.TakeRet(lhsSlot)
			m.CallArgs(e.walk, []int{rhsSlot}, func() { e.copyBody(kbSiteKeep, 0) })
			m.TakeRet(rhsSlot)
			m.AllocRecord(kbSiteRule, 2, 0b11, 8)
			m.InitPtrField(8, 0, lhsSlot)
			m.InitPtrField(8, 1, rhsSlot)
			m.ConsPtr(kbSiteRule, 8, 1, 1)
			ruleCount++
			e.epoch++
			if e.epoch == 0 {
				e.epoch = 1
			}
		}

		// mkVar/mkConst into a slot.
		leaf := func(tg, id uint64, dst int) { e.mkLeaf(kbSiteTerm, tg, id, dst) }

		// Group axioms:
		//   A1: (x·y)·z → x·(y·z)
		//   A2: e·x → x
		//   A3: x⁻¹·x → e
		x, y, z := uint64(kbVarBase), uint64(kbVarBase+1), uint64(kbVarBase+2)
		leaf(kbVar, x, 3)
		leaf(kbVar, y, 4)
		e.mkMul(kbSiteTerm, 3, 4, 5) // x·y
		leaf(kbVar, z, 6)
		e.mkMul(kbSiteTerm, 5, 6, 5) // (x·y)·z
		leaf(kbVar, y, 4)
		leaf(kbVar, z, 6)
		e.mkMul(kbSiteTerm, 4, 6, 6) // y·z
		e.mkMul(kbSiteTerm, 3, 6, 6) // x·(y·z)
		addRule(5, 6)

		leaf(kbConst, kbE, 3)
		leaf(kbVar, x, 4)
		e.mkMul(kbSiteTerm, 3, 4, 5) // e·x
		leaf(kbVar, x, 6)
		addRule(5, 6)

		leaf(kbVar, x, 3)
		e.mkInv(kbSiteTerm, 3, 4) // x⁻¹
		e.mkMul(kbSiteTerm, 4, 3, 5)
		leaf(kbConst, kbE, 6)
		addRule(5, 6)

		// nthRule loads rule record #i (0 = oldest) into dst.
		nthRule := func(i, dst int) {
			m.SetSlot(dst, m.Slot(1))
			for k := 0; k < ruleCount-1-i; k++ {
				m.Tail(dst, dst)
			}
			m.Head(dst, dst)
		}

		// ---- Completion ---------------------------------------------------
		const maxRules = 14
		type pairIdx struct{ i, j int }
		var queue []pairIdx
		for i := 0; i < ruleCount; i++ {
			for j := 0; j <= i; j++ {
				queue = append(queue, pairIdx{i, j})
				if i != j {
					queue = append(queue, pairIdx{j, i})
				}
			}
		}
		processed := 0
		for len(queue) > 0 && ruleCount < maxRules && processed < 80 {
			pq := queue[0]
			queue = queue[1:]
			processed++
			// Superpose rule j (renamed apart) into rule i at every
			// non-variable position of lhs_i.
			for k := 0; ; k++ {
				if pq.i == pq.j && k == 0 {
					continue // trivial root overlap of a rule with itself
				}
				nthRule(pq.i, 3)
				m.LoadField(3, 0, 4) // lhs_i
				// Box for the extracted subterm.
				m.AllocRecord(kbSiteTerm, 1, 0b1, 5)
				if !e.subtermAt(4, 5, k) {
					break
				}
				nthRule(pq.j, 6)
				m.LoadField(6, 0, 7) // lhs_j
				m.CallArgs(e.walk, []int{7}, func() { e.copyBody(kbSiteTerm, 16) })
				m.TakeRet(7) // lhs_j renamed apart

				unified := false
				m.TryCatch(func() {
					m.LoadField(5, 0, 5) // the subterm out of its box
					m.SetSlotNil(8)
					m.CallArgs(e.unify, []int{5, 7, 8}, func() { e.unifyBody() })
					if m.Raising() {
						return
					}
					m.TakeRet(8) // σ
					unified = true
				}, func() {})
				if !unified {
					continue
				}

				// cpL = (lhs_i[k ← rhs_j'])σ ; cpR = (rhs_i)σ.
				nthRule(pq.j, 6)
				m.LoadField(6, 1, 7)
				m.CallArgs(e.walk, []int{7}, func() { e.copyBody(kbSiteTerm, 16) })
				m.TakeRet(7) // rhs_j renamed
				cnt := 0
				m.CallArgs(e.subst, []int{4, 7}, func() { e.replaceAt(&cnt, k) })
				m.TakeRet(5)
				m.CallArgs(e.subst, []int{5, 8}, func() { e.substBody(kbSiteTerm, true) })
				m.TakeRet(5) // cpL
				nthRule(pq.i, 3)
				m.LoadField(3, 1, 4)
				m.CallArgs(e.subst, []int{4, 8}, func() { e.substBody(kbSiteTerm, true) })
				m.TakeRet(4) // cpR

				// Normalize both sides with the current rules.
				e.budget, e.budgetRaise = 4000, false
				m.CallArgs(e.norm, []int{5, 1}, func() { e.normBody() })
				m.TakeRet(5)
				e.budget = 4000
				m.CallArgs(e.norm, []int{4, 1}, func() { e.normBody() })
				m.TakeRet(4)
				if e.eqTerms(5, 4) {
					continue // joinable: nothing to learn
				}
				// Orient by (weight, left-spine depth); require the rhs
				// variables to occur in the lhs.
				w1, s1, v1 := e.measure(5)
				w2, s2, v2 := e.measure(4)
				lhsSlot, rhsSlot := 5, 4
				lv, rv := v1, v2
				switch {
				case w1 > w2 || (w1 == w2 && s1 > s2):
				case w2 > w1 || (w1 == w2 && s2 > s1):
					lhsSlot, rhsSlot = 4, 5
					lv, rv = v2, v1
				default:
					continue // unorientable
				}
				if rv&^lv != 0 || e.tag(lhsSlot) == kbVar {
					continue
				}
				old := ruleCount
				addRule(lhsSlot, rhsSlot)
				for i := 0; i < old; i++ {
					queue = append(queue, pairIdx{i, old}, pairIdx{old, i})
				}
				queue = append(queue, pairIdx{old, old})
				if ruleCount >= maxRules {
					break
				}
			}
		}
		check = uint64(ruleCount) * 1000003

		// ---- Client phase ---------------------------------------------------
		//
		// Normalize a long list of generator products with the completed
		// system. The list is processed by the classic non-tail map —
		// map f (h::t) = f h :: map f t — so one activation record per
		// pending product stays on the stack until the entire map
		// finishes: the deep, rarely-unwinding stack of Table 2. The
		// rewriting churn for each product happens on top of that stable
		// prefix. If the rewrite budget runs out mid-map, a resource
		// exception unwinds the whole recursion (the §5 watermark case)
		// and the map restarts with a fresh budget; normal-form stamps
		// make the recomputation cheap.
		m.SetSlotNil(2) // retained normal forms
		nProducts := scale.DepthOf(500, 16)
		const prodLen = 24

		// Build the product list (left-associated combs) in slot 2 of a
		// builder frame, then move it to main slot 3.
		m.SetSlotNil(3)
		for p := nProducts - 1; p >= 0; p-- {
			atom := func(k int, dst int) {
				switch (k*7 + p) % 4 {
				case 0:
					leaf(kbConst, kbA, dst)
				case 1:
					leaf(kbConst, kbB, dst)
				case 2:
					leaf(kbConst, kbA, dst)
					e.mkInv(kbSiteProd, dst, dst)
				default:
					leaf(kbConst, kbB, dst)
					e.mkInv(kbSiteProd, dst, dst)
				}
			}
			atom(0, 4)
			for k := 1; k < prodLen; k++ {
				atom(k, 5)
				e.mkMul(kbSiteProd, 4, 5, 4)
			}
			m.ConsPtr(kbSiteProd, 4, 3, 3)
		}

		// mapNorm: frame slots 1=list, 2=rules, 3=normal form, 4=mapped tail.
		mapFrame := m.PtrFrame("kb_map", 4)
		var mapNorm func()
		mapNorm = func() {
			if m.IsNil(1) {
				m.RetPtr(1)
				return
			}
			m.Head(1, 3)
			m.CallArgs(e.norm, []int{3, 2}, func() { e.normBody() })
			if m.Raising() {
				return
			}
			m.TakeRet(3)
			// Keep a long-lived copy of the normal form.
			m.CallArgs(e.walk, []int{3}, func() { e.copyBody(kbSiteKeep, 0) })
			m.TakeRet(3)
			m.Tail(1, 4)
			m.CallArgs(mapFrame, []int{4, 2}, mapNorm)
			if m.Raising() {
				return
			}
			m.TakeRet(4)
			m.ConsPtr(kbSiteRule, 3, 4, 4)
			m.RetPtr(4)
		}

		perProduct := prodLen*prodLen/2 + 64
		// First attempt is deliberately starved so the resource exception
		// fires about 70% of the way through, jumping past every stack
		// marker in the map recursion; the retry completes.
		for attempt := 0; ; attempt++ {
			if attempt == 0 {
				e.budget = nProducts * perProduct * 7 / 10
				e.budgetRaise = true
			} else {
				e.budget = 4 * nProducts * perProduct
				e.budgetRaise = false
			}
			done := false
			m.TryCatch(func() {
				m.CallArgs(mapFrame, []int{3, 1}, mapNorm)
				if m.Raising() {
					return
				}
				m.TakeRet(2)
				done = true
			}, func() {
				check = check*31 + 7 // observed one resource exception
			})
			if done {
				break
			}
		}

		// Fold the normal forms into the check.
		m.SetSlot(4, m.Slot(2))
		for !m.IsNil(4) {
			m.Head(4, 5)
			w, s, _ := e.measure(5)
			check = check*31 + uint64(w)*64 + uint64(s)
			m.Tail(4, 4)
		}
	})
	return Result{Check: check}
}
