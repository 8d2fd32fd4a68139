package fuzz

import (
	"testing"
)

// threadProgram is a hand-written program that exercises the whole
// thread machine: spawns up to the cap's neighborhood, cross-thread
// heap traffic through shared roots, barriered stores on non-primary
// threads, collections triggered from every thread, and joins that
// leave barrier records behind.
func threadProgram() *Program {
	return &Program{Ops: []Op{
		// Prologue: fill the roots so field ops have targets.
		{Kind: OpAllocRecord, A: 0, B: 0, C: 4, V: 101},
		{Kind: OpAllocRecord, A: 1, B: 1, C: 5, V: 202},
		{Kind: OpAllocRecord, A: 2, B: 2, C: 3, V: 303},
		{Kind: OpAllocRecord, A: 3, B: 3, C: 6, V: 404},
		{Kind: OpAllocRecord, A: 4, B: 4, C: 4, V: 505},
		{Kind: OpAllocRecord, A: 5, B: 5, C: 5, V: 606},
		{Kind: OpAllocRecord, A: 6, B: 0, C: 2, V: 707},
		{Kind: OpAllocRecord, A: 7, B: 1, C: 3, V: 808},

		{Kind: OpSpawn},
		{Kind: OpSpawn}, // threads 1 and 2, roots seeded from thread 0
		{Kind: OpSwitch, A: 1},
		{Kind: OpAllocPtrArray, A: 2, B: 2, C: 79, V: 909}, // thread 1 private
		{Kind: OpStorePtr, A: 2, B: 0, C: 4},               // barriered store on thread 1
		{Kind: OpCollect},
		{Kind: OpSwitch, A: 2},
		{Kind: OpAllocRawArray, A: 3, B: 3, C: 99, V: 1010},
		{Kind: OpSetAux, A: 3, V: 77},
		{Kind: OpStorePtr, A: 1, B: 1, C: 3},
		{Kind: OpSwitch, A: 0},
		{Kind: OpStorePtr, A: 1, B: 2, C: 2},
		{Kind: OpCollect, V: 1}, // major
		{Kind: OpJoin, A: 1},    // thread 1 dies holding private data
		{Kind: OpAllocPtrArray, A: 4, B: 4, C: 69, V: 1111},
		{Kind: OpWalk, A: 1},
		{Kind: OpCollect},
		{Kind: OpJoin, A: 2},
		{Kind: OpCollect, V: 1},
	}}
}

// hasThreadOps reports whether p ever touches the thread machine.
func hasThreadOps(p *Program) bool {
	for _, op := range p.Ops {
		switch op.Kind {
		case OpSpawn, OpSwitch, OpJoin:
			return true
		}
	}
	return false
}

// TestThreadProgramMatrixClean runs the hand-written thread program
// through every oracle across the full matrix — the same bar every
// generated thread program has to clear.
func TestThreadProgramMatrixClean(t *testing.T) {
	p := threadProgram()
	if !hasThreadOps(p) {
		t.Fatal("thread program reports no thread ops")
	}
	for _, f := range CheckProgram(p, nil) {
		t.Errorf("%s", f)
	}
}

// TestDeadThreadStackStopsBeingRoots: joining a thread removes its stack
// from the root set, so data reachable only from the joined thread's
// frames becomes garbage — the fingerprint of a run that joins must
// differ from the identical run that does not.
func TestDeadThreadStackStopsBeingRoots(t *testing.T) {
	base := []Op{
		{Kind: OpAllocRecord, A: 0, B: 0, C: 4, V: 11},
		{Kind: OpSpawn},
		{Kind: OpSwitch, A: 1},
		// Replace the inherited alias with a thread-1-private array.
		{Kind: OpAllocRawArray, A: 1, B: 1, C: 49, V: 22},
		{Kind: OpSwitch, A: 0},
	}
	joined := &Program{Ops: append(append([]Op{}, base...),
		Op{Kind: OpJoin, A: 1}, Op{Kind: OpCollect, V: 1})}
	kept := &Program{Ops: append(append([]Op{}, base...),
		Op{Kind: OpCollect, V: 1})}

	cfg := Config{Name: "gen"}
	a := execute(joined, cfg, false, false)
	b := execute(kept, cfg, false, false)
	if a.panicked != nil || b.panicked != nil {
		t.Fatalf("panicked: %v / %v", a.panicked, b.panicked)
	}
	if a.fp == b.fp {
		t.Fatalf("fingerprint %s ignores the joined thread's dropped roots", fmtHash(a.fp))
	}
}

// TestThreadProfileGeneratesThreadOps: the threads profile exists in the
// seed-to-profile mapping and its programs actually drive the thread
// machine, so sweeps exercise spawns/switches/joins without hand-written
// cases.
func TestThreadProfileGeneratesThreadOps(t *testing.T) {
	var seed uint64
	for ; ProfileOf(seed) != ProfileThreads; seed++ {
	}
	p := Generate(seed)
	if !hasThreadOps(p) {
		t.Fatalf("seed %d (threads profile) generated no thread ops", seed)
	}
	var spawns int
	for _, op := range p.Ops {
		if op.Kind == OpSpawn {
			spawns++
		}
	}
	if spawns == 0 {
		t.Fatalf("seed %d (threads profile) never spawns", seed)
	}
	out := execute(p, Config{Name: "gen+markers", MarkerN: fuzzMarkerN}, false, false)
	if out.panicked != nil {
		t.Fatalf("threads-profile seed %d panicked: %v", seed, out.panicked)
	}
	if out.stats.NumGC == 0 {
		t.Fatalf("threads-profile seed %d never collected", seed)
	}
}

// TestSpawnCapIsTotal: a program of nothing but spawns stays inside
// MaxThreads and remains clean — the cap is a no-op, not a crash.
func TestSpawnCapIsTotal(t *testing.T) {
	p := &Program{Ops: []Op{{Kind: OpAllocRecord, A: 0, B: 0, C: 3, V: 1}}}
	for i := 0; i < 2*MaxThreads; i++ {
		p.Ops = append(p.Ops, Op{Kind: OpSpawn})
	}
	p.Ops = append(p.Ops, Op{Kind: OpCollect, V: 1})
	out := execute(p, Config{Name: "gen"}, false, false)
	if out.panicked != nil {
		t.Fatalf("spawn flood panicked: %v", out.panicked)
	}
}
