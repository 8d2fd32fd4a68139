package fuzz

import (
	"reflect"
	"testing"
)

// markerPred is a cheap synthetic failure predicate: the "bug" reproduces
// whenever the program still contains a collect op with an odd V. It
// lets the shrinker's contract be tested without running collectors.
func markerPred(p *Program) bool {
	for _, op := range p.Ops {
		if op.Kind == OpCollect && op.V&1 == 1 {
			return true
		}
	}
	return false
}

// TestMinimizeShrinksToCore: from a full generated program, the marker
// predicate minimizes to exactly the ops that carry it — one collect op —
// with its irrelevant operands zeroed by the simplification phase.
func TestMinimizeShrinksToCore(t *testing.T) {
	var p *Program
	for seed := uint64(0); ; seed++ {
		p = Generate(seed)
		if markerPred(p) {
			break
		}
	}
	min, evals := Minimize(p, markerPred, 0)
	if !markerPred(min) {
		t.Fatal("minimized program no longer satisfies the predicate")
	}
	if len(min.Ops) != 1 {
		t.Fatalf("minimized to %d ops, want 1 (a lone odd collect)", len(min.Ops))
	}
	op := min.Ops[0]
	if op.Kind != OpCollect || op.V&1 != 1 {
		t.Fatalf("surviving op %+v is not an odd collect", op)
	}
	// Operand simplification drives dead operands to their simplest
	// spelling: A/B/C to zero, V to the smallest value keeping V odd —
	// zeroing V is always attempted and must have been rejected.
	if op.A != 0 || op.B != 0 || op.C != 0 {
		t.Fatalf("dead operands not simplified: %+v", op)
	}
	if evals <= 0 || evals > DefaultMinimizeEvals {
		t.Fatalf("evals = %d, want within (0, %d]", evals, DefaultMinimizeEvals)
	}
	if min.Seed != p.Seed {
		t.Fatalf("minimized program lost its seed: %d vs %d", min.Seed, p.Seed)
	}
}

// TestMinimizeDeterministic: the same failing program always minimizes to
// the same reproducer with the same evaluation count.
func TestMinimizeDeterministic(t *testing.T) {
	var p *Program
	for seed := uint64(0); ; seed++ {
		p = Generate(seed)
		if markerPred(p) {
			break
		}
	}
	m1, e1 := Minimize(p, markerPred, 0)
	m2, e2 := Minimize(p, markerPred, 0)
	if !reflect.DeepEqual(m1, m2) || e1 != e2 {
		t.Fatalf("two minimizations diverged: %d vs %d ops, %d vs %d evals",
			len(m1.Ops), len(m2.Ops), e1, e2)
	}
}

// TestMinimizeRespectsEvalBudget: maxEvals is a hard cap, and whatever
// comes back under a tight budget still satisfies the predicate.
func TestMinimizeRespectsEvalBudget(t *testing.T) {
	p := &Program{Ops: make([]Op, 64)}
	for i := range p.Ops {
		p.Ops[i] = Op{Kind: OpWork, V: uint64(i)}
	}
	p.Ops[50] = Op{Kind: OpCollect, A: 9, B: 9, C: 9, V: 3}

	for _, budget := range []int{1, 2, 5, 17} {
		calls := 0
		counting := func(q *Program) bool { calls++; return markerPred(q) }
		min, evals := Minimize(p, counting, budget)
		if calls != evals {
			t.Fatalf("budget %d: reported %d evals, predicate ran %d times", budget, evals, calls)
		}
		if evals > budget {
			t.Fatalf("budget %d: used %d evaluations", budget, evals)
		}
		if !markerPred(min) {
			t.Fatalf("budget %d: result lost the failure", budget)
		}
		if len(min.Ops) > len(p.Ops) {
			t.Fatalf("budget %d: result grew from %d to %d ops", budget, len(p.Ops), len(min.Ops))
		}
	}
}

// TestMinimizeNonFailingInput: when the predicate does not hold for the
// input, Minimize hands it back untouched after the single guard check.
func TestMinimizeNonFailingInput(t *testing.T) {
	p := &Program{Seed: 5, Ops: []Op{{Kind: OpWork, V: 2}}}
	min, evals := Minimize(p, markerPred, 0)
	if evals != 1 {
		t.Fatalf("evals = %d, want 1 (the guard check)", evals)
	}
	if !reflect.DeepEqual(min, p) {
		t.Fatalf("non-failing input was modified: %+v", min)
	}
}

// TestMinimizeMonotonic: every accepted step shrinks or simplifies, so
// the result is never larger than the input and predicate evaluations
// are bounded by the default even for the permissive always-true
// predicate (the worst case for a shrinker loop).
func TestMinimizeMonotonic(t *testing.T) {
	p := Generate(11)
	min, evals := Minimize(p, func(*Program) bool { return true }, 0)
	if len(min.Ops) != 0 {
		t.Fatalf("always-true predicate left %d ops, want 0", len(min.Ops))
	}
	if evals > DefaultMinimizeEvals {
		t.Fatalf("evals = %d, exceeded the default budget", evals)
	}
}

// TestFailurePredicateSubset: a divergence failure's predicate consults
// only the baseline and the failing config, and it reproduces the
// injected divergence on the original program (the precondition Minimize
// requires). The broken-collector machinery lives in broken_test.go;
// here a site-remapping wrapper provides a cheap, deterministic
// divergence.
func TestFailurePredicateSubset(t *testing.T) {
	cfgs := divergentMatrix()
	p := Generate(0) // every generated program allocates (root prologue)
	fails := CheckProgram(p, cfgs)
	var div *Failure
	for i := range fails {
		if fails[i].Kind == FailDivergence {
			div = &fails[i]
			break
		}
	}
	if div == nil {
		t.Fatalf("site-remap config produced no divergence; failures: %v", fails)
	}
	pred := FailurePredicate(*div, cfgs)
	if !pred(p) {
		t.Fatal("failure predicate does not hold for the original failing program")
	}
	if pred(&Program{Seed: p.Seed}) {
		t.Fatal("failure predicate holds for the empty program")
	}
}

// TestFailurePredicateUnknownConfigPanics: a failure whose config is not
// among the predicate's configs can only come from a caller bug, so the
// predicate refuses it instead of minimizing against a guess.
func TestFailurePredicateUnknownConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FailurePredicate accepted a config outside the matrix")
		}
	}()
	FailurePredicate(Failure{Config: "no-such-config", Kind: FailCrash}, nil)
}
