package sanitize_test

import (
	"reflect"
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/sanitize"
)

// warmUp runs three clean automatic checks on w: a short list per round
// in root slots 5..7, each round ending in a collection (the middle one
// major), so the wrapper's scratch holds seen addresses, queued objects
// and memoized space walks from earlier heap states.
func warmUp(t *testing.T, w *sanitize.Wrapper, e *env) {
	t.Helper()
	before := w.Checks()
	for i := 0; i < 3; i++ {
		consList(w, e, 5+i, 40, obj.SiteID(4+i))
		w.Collect(i == 1)
	}
	if got := w.Checks() - before; got < 3 {
		t.Fatalf("warm-up ran %d automatic checks, want >= 3", got)
	}
}

// traversedCase corrupts an object the warm-up checks already traversed:
// the tenured head of the slot-5 list gets a field pointing past its
// space's allocation frontier. A traversal that kept an earlier check's
// seen set would skip the object and miss the dangling field.
var traversedCase = brokenCase{
	pass:  "fromspace",
	build: func(e *env) core.Collector { return newGen(e, core.Config{}) },
	corrupt: func(t *testing.T, c core.Collector, e *env) {
		head := mem.Addr(e.stack.Slot(5))
		o := obj.Decode(c.Heap(), head)
		past := mem.MakeAddr(head.Space(), c.Heap().SpaceOf(head).Used()+64)
		c.Heap().Store(o.PayloadAddr(1), uint64(past))
	},
}

// TestScratchReuseKeepsViolations: a Wrapper reuses its scratch across
// checks, so nothing earlier clean checks left there may hide a later
// corruption. For every broken case, after three clean automatic checks
// on one wrapper, the wrapper's check must report exactly what a
// one-shot Check reports on the same corrupted state.
func TestScratchReuseKeepsViolations(t *testing.T) {
	run := func(t *testing.T, tc brokenCase) {
		e := newEnv(8)
		c := tc.build(e)
		w := sanitize.Wrap(c, nil) // panics on a violation
		warmUp(t, w, e)
		tc.corrupt(t, c, e)
		got, want := w.Check(), sanitize.Check(c)
		if len(want) == 0 {
			t.Fatalf("one-shot Check missed the %s corruption", tc.pass)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("wrapper check after reuse:\n  %v\none-shot Check:\n  %v", got, want)
		}
		for _, v := range got {
			if v.Pass != tc.pass {
				t.Errorf("pass %q fired on %s corruption: %s", v.Pass, tc.pass, v)
			}
		}
	}
	for _, tc := range brokenCases {
		t.Run(tc.pass, func(t *testing.T) { run(t, tc) })
	}
	t.Run("fromspace-traversed", func(t *testing.T) { run(t, traversedCase) })
}

// cleanConfigs covers every collector family the sanitizer inspects.
var cleanConfigs = []struct {
	name  string
	build func(e *env) core.Collector
}{
	{"semispace", func(e *env) core.Collector {
		return core.NewSemispace(e.stack, e.meter, nil, core.Config{
			BudgetWords: 1 << 20, InitialWords: 1024, LargeObjectWords: 64})
	}},
	{"gen", func(e *env) core.Collector { return newGen(e, core.Config{LargeObjectWords: 64}) }},
	{"gen+markers", func(e *env) core.Collector { return newGen(e, core.Config{MarkerN: 2}) }},
	{"gen+cards", func(e *env) core.Collector { return newGen(e, core.Config{CardTable: true}) }},
	{"gen+aging", func(e *env) core.Collector { return newGen(e, core.Config{AgingMinors: 1}) }},
	{"gen+pretenure", func(e *env) core.Collector {
		pol := core.NewPretenurePolicy(map[obj.SiteID]core.PretenureDecision{2: {}})
		return newGen(e, core.Config{Pretenure: pol})
	}},
	{"marksweep", func(e *env) core.Collector {
		return newGen(e, core.Config{OldCollector: core.OldMarkSweep, LargeObjectWords: 64})
	}},
	{"markcompact", func(e *env) core.Collector {
		return newGen(e, core.Config{OldCollector: core.OldMarkCompact})
	}},
}

// churn builds, promotes and drops lists and large arrays through c,
// calling step after each phase.
func churn(c core.Collector, e *env, step func()) {
	for round := 0; round < 4; round++ {
		consList(c, e, 1, 150, obj.SiteID(1+round%2))
		big := c.Alloc(obj.PtrArray, 80, 3, 0)
		c.InitField(big, 0, e.stack.Slot(1))
		e.stack.SetSlot(3, uint64(big))
		c.Collect(false)
		step()
		consList(c, e, 2, 60, 2)
		c.Collect(round%2 == 1)
		step()
		e.stack.SetSlot(1, 0)
		c.Collect(true)
		step()
	}
}

// TestWrapperCheckMatchesCheck: on clean heaps across every collector
// family, the wrapper's check over its reused scratch returns exactly
// what a one-shot Check returns.
func TestWrapperCheckMatchesCheck(t *testing.T) {
	for _, cfg := range cleanConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEnv(8)
			c := cfg.build(e)
			w := sanitize.Wrap(c, nil) // panics on a violation
			churn(w, e, func() {
				got, want := w.Check(), sanitize.Check(c)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("wrapper check %v, one-shot Check %v", got, want)
				}
			})
		})
	}
}

// TestWrapperCheckAllocs: a check over the wrapper's warmed scratch
// allocates less than a one-shot Check of the same heap. The counts are
// logged for each collector family.
func TestWrapperCheckAllocs(t *testing.T) {
	for _, cfg := range cleanConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEnv(8)
			c := cfg.build(e)
			w := sanitize.Wrap(c, nil)
			churn(w, e, func() {})
			consList(w, e, 1, 150, 1)
			w.Collect(false)
			reused := testing.AllocsPerRun(20, func() { w.Check() })
			oneShot := testing.AllocsPerRun(20, func() { sanitize.Check(c) })
			t.Logf("allocs per check: wrapper %.0f, one-shot %.0f", reused, oneShot)
			if reused >= oneShot {
				t.Errorf("wrapper check allocates %.0f, one-shot Check %.0f: scratch not reused", reused, oneShot)
			}
		})
	}
}
