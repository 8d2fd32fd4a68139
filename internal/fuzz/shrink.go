package fuzz

import "fmt"

// Minimize reduces a failing program while preserving pred (the failure
// predicate). It is ddmin-style: chunk-deletion passes with halving
// chunk sizes, followed by per-op operand simplification. The result
// is 1-minimal with respect to the attempted reductions or as far as
// maxEvals allowed, whichever comes first.
//
// Determinism: candidate order is a pure function of the input program,
// so the same failing program always minimizes to the same reproducer.
// Termination: every accepted candidate strictly shrinks the program
// (fewer ops) or strictly simplifies an operand toward zero, and every
// candidate costs one pred evaluation, so the loop is doubly bounded —
// structurally, and by maxEvals (<=0 means DefaultMinimizeEvals).
//
// pred must hold for p itself; if it does not, p is returned unchanged
// with evals 1.
func Minimize(p *Program, pred func(*Program) bool, maxEvals int) (*Program, int) {
	if maxEvals <= 0 {
		maxEvals = DefaultMinimizeEvals
	}
	evals := 0
	try := func(cand *Program) bool {
		if evals >= maxEvals {
			return false
		}
		evals++
		return pred(cand)
	}

	cur := &Program{Seed: p.Seed, Ops: append([]Op(nil), p.Ops...)}
	if !try(cur) {
		return cur, evals
	}

	// Phase 1: chunk deletion. Remove [i, i+chunk) runs of ops, halving
	// the chunk size whenever a full sweep at the current size removes
	// nothing more.
	for chunk := len(cur.Ops) / 2; chunk >= 1; chunk /= 2 {
		for {
			removed := false
			for i := 0; i+chunk <= len(cur.Ops) && evals < maxEvals; {
				cand := &Program{Seed: cur.Seed,
					Ops: append(append([]Op(nil), cur.Ops[:i]...), cur.Ops[i+chunk:]...)}
				if try(cand) {
					cur = cand
					removed = true
					// Do not advance i: the next chunk has shifted in.
				} else {
					i++
				}
			}
			if !removed || evals >= maxEvals {
				break
			}
		}
		if evals >= maxEvals {
			break
		}
	}

	// Phase 2: operand simplification. For each surviving op, try
	// zeroing each operand (V, then C, then B, then A); a zeroed
	// operand is the simplest spelling of "this value does not matter".
	for i := 0; i < len(cur.Ops) && evals < maxEvals; i++ {
		simplify := func(apply func(*Op)) {
			op := cur.Ops[i]
			apply(&op)
			if op == cur.Ops[i] {
				return // already simplest
			}
			cand := &Program{Seed: cur.Seed, Ops: append([]Op(nil), cur.Ops...)}
			cand.Ops[i] = op
			if try(cand) {
				cur = cand
			}
		}
		simplify(func(o *Op) { o.V = 0 })
		simplify(func(o *Op) { o.C = 0 })
		simplify(func(o *Op) { o.B = 0 })
		simplify(func(o *Op) { o.A = 0 })
	}
	return cur, evals
}

// DefaultMinimizeEvals bounds predicate evaluations during Minimize
// when the caller does not. Each evaluation re-runs the program across
// the configs the predicate consults, so this is the real cost knob.
const DefaultMinimizeEvals = 2000

// FailurePredicate builds a Minimize predicate that preserves fail's
// (config, kind) signature. The predicate runs the candidate against
// the failing configuration — plus the matrix baseline when the failure
// is relative (divergence) — and accepts any candidate reproducing the
// same kind of failure in the same configuration. fail must name a
// configuration in cfgs, as every failure CheckProgram reports over cfgs
// does; any other name is a caller bug and panics.
func FailurePredicate(fail Failure, cfgs []Config) func(*Program) bool {
	if cfgs == nil {
		cfgs = Matrix()
	}
	var subset []Config
	for i, cfg := range cfgs {
		if cfg.Name == fail.Config {
			if fail.Kind == FailDivergence && i != 0 {
				subset = []Config{cfgs[0], cfg}
			} else {
				subset = []Config{cfg}
			}
			break
		}
	}
	if subset == nil {
		panic(fmt.Sprintf("fuzz: failure config %q is not among the predicate's configs", fail.Config))
	}
	return func(p *Program) bool {
		for _, f := range CheckProgram(p, subset) {
			if f.Kind == fail.Kind && f.Config == fail.Config {
				return true
			}
		}
		return false
	}
}
