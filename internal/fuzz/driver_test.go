package fuzz

import (
	"bytes"
	"testing"
)

// TestRunSeedsSerialParallelIdentical: the report — verbose per-seed
// lines included — is byte-identical at every parallelism level. This is
// the property the CI fuzz job byte-compares through the CLI; here it is
// pinned at the package boundary where the worker pool lives.
func TestRunSeedsSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed matrix sweep")
	}
	run := func(par int) *bytes.Buffer {
		rep := RunSeeds(Options{From: 0, To: 6, Parallelism: par})
		var buf bytes.Buffer
		rep.Render(&buf, true)
		return &buf
	}
	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("serial and parallel reports differ:\n--- serial ---\n%s--- parallel ---\n%s",
			serial, parallel)
	}
	if serial.Len() == 0 {
		t.Fatal("verbose report is empty")
	}
}

// TestRunSeedsProgressAndOrder: results assemble in seed order whatever
// the completion order, the progress callback sees every seed exactly
// once, and a clean sweep reports zero failures.
func TestRunSeedsProgressAndOrder(t *testing.T) {
	var calls int
	lastDone := 0
	rep := RunSeeds(Options{
		From: 10, To: 14, Parallelism: 2,
		Progress: func(done, total, failures int) {
			calls++
			if total != 4 {
				t.Errorf("progress total = %d, want 4", total)
			}
			if done != lastDone+1 {
				t.Errorf("progress done jumped %d -> %d", lastDone, done)
			}
			lastDone = done
			if failures != 0 {
				t.Errorf("clean sweep reported %d failures mid-run", failures)
			}
		},
	})
	if calls != 4 {
		t.Fatalf("progress called %d times, want 4", calls)
	}
	for i, sr := range rep.Results {
		if sr.Seed != uint64(10+i) {
			t.Fatalf("result %d is seed %d, want %d (seed order)", i, sr.Seed, 10+i)
		}
		if sr.Profile != ProfileOf(sr.Seed) {
			t.Fatalf("seed %d labeled profile %v, want %v", sr.Seed, sr.Profile, ProfileOf(sr.Seed))
		}
	}
	if rep.FailureCount() != 0 {
		t.Fatalf("clean seed range failed: %+v", rep)
	}
}

// TestRunSeedsMinimizesFailures: a sweep over a divergent matrix entry
// minimizes its failing seeds up to the cap, and every minimized program
// still reproduces its failure.
//
// The standard matrix has no known failures to shrink, so the divergence
// is injected: CheckSeed runs the standard matrix internally, which this
// test cannot reach — instead it exercises the Minimize plumbing directly
// through the driver's own path on a failing Failure.
func TestRunSeedsMinimizesFailures(t *testing.T) {
	cfgs := divergentMatrix()
	p := Generate(0)
	fails := CheckProgram(p, cfgs)
	if len(fails) == 0 {
		t.Fatal("divergent matrix produced no failures")
	}
	pred := FailurePredicate(fails[0], cfgs)
	min, evals := Minimize(p, pred, 200)
	if !pred(min) {
		t.Fatal("minimized program lost the divergence")
	}
	if len(min.Ops) >= len(p.Ops) {
		t.Fatalf("minimization did not shrink: %d -> %d ops", len(p.Ops), len(min.Ops))
	}
	if evals > 200 {
		t.Fatalf("minimization overran its budget: %d evals", evals)
	}
}

// TestReportRenderDeterministic: rendering is a pure function of the
// report value.
func TestReportRenderDeterministic(t *testing.T) {
	rep := &Report{
		From: 3, To: 5,
		Results: []SeedResult{
			{Seed: 3, Profile: ProfileOf(3), FP: 0xabc, Checksum: 0xdef},
			{Seed: 4, Profile: ProfileOf(4), Failures: []Failure{
				{Seed: 4, Config: "gen", Kind: FailDivergence, Detail: "fingerprint mismatch"},
			}},
		},
		Minimized: []Minimized{{
			Failure: Failure{Seed: 4, Config: "gen", Kind: FailDivergence},
			Program: &Program{Ops: []Op{{Kind: OpCollect}}},
			Evals:   17,
		}},
	}
	var a, b bytes.Buffer
	rep.Render(&a, true)
	rep.Render(&b, true)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same report differ")
	}
	if rep.FailureCount() != 1 {
		t.Fatalf("FailureCount = %d, want 1", rep.FailureCount())
	}
	for _, want := range []string{"seed 3", "FAIL seed 4 [gen]", "minimized seed 4", "1 failure(s)"} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Errorf("render missing %q:\n%s", want, a.String())
		}
	}
}
