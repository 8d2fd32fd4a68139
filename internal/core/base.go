package core

import (
	"fmt"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
	"tilgc/internal/trace"
)

// base is the skeleton Semispace and Generational share: the runtime they
// collect for, the configuration (defaults filled), the thread set, the
// root scanners, the large-object space, the worker tally, the pooled
// evacuator, and the statistics block. It runs every step the two
// collectors take the same way: the mutator's loads and initializing
// stores, the allocation charge and notice, the LOS share of the budget,
// arming the evacuator, and opening and closing each collection. The
// collectors keep what differs: allocation routing, the barriered store,
// the root scan, and the collection algorithm itself.
type base struct {
	heap  *mem.Heap
	meter *costmodel.Meter
	prof  Profiler
	tr    *trace.Recorder // cfg.Trace

	cfg Config
	los *LOS
	// tally shards parallel-phase cycles over simulated workers (nil for
	// W <= 1; see costmodel.WorkerTally).
	tally *costmodel.WorkerTally

	// threads is the simulated mutator thread set, thread 0 wrapping the
	// primary stack: every live thread's stack is a root source with its
	// own scanner.
	threads   *rt.ThreadSet
	tscanners []*StackScanner // per-thread scanners, indexed by thread id

	// ev is pooled across collections (see evacuation): its frontiers and
	// LOS queue are reused, so a steady-state collection allocates nothing
	// on the Go heap.
	ev evacuator

	stats GCStats
}

// init builds the shared state over a fresh heap and a thread set whose
// thread 0 wraps stack. It must run on the collector's own base: the
// scanners and the LOS keep &b.stats.
func (b *base) init(stack *rt.Stack, meter *costmodel.Meter, prof Profiler, cfg Config) {
	b.heap = mem.NewHeap()
	b.meter, b.prof, b.tr, b.cfg = meter, prof, cfg.Trace, cfg
	if cfg.GCWorkers > 1 {
		b.tally = costmodel.NewWorkerTally(meter, cfg.GCWorkers)
	}
	b.threads = rt.NewThreadSet(stack, meter)
	b.tscanners = []*StackScanner{b.newScanner(stack)}
	b.los = NewLOS(b.heap, meter, &b.stats)
}

// newScanner creates a stack scanner configured like every other one of
// this collector's.
func (b *base) newScanner(st *rt.Stack) *StackScanner {
	sc := NewStackScanner(st, b.meter, &b.stats, b.cfg.MarkerN)
	sc.SetMarkerPolicy(b.cfg.MarkerPolicy)
	// Without immediate promotion, frames cached by the stack scanner can
	// hold aging-space pointers, so minor scans must revisit cached roots
	// rather than skip frames.
	sc.SetRevisitOnMinor(b.cfg.AgingMinors > 0)
	sc.SetTally(b.tally)
	return sc
}

// Threads returns the collector's simulated mutator thread set. The
// scheduler (a workload mutator or the fuzz interpreter) spawns, switches
// and joins through it; pointer stores and root scans follow it.
func (b *base) Threads() *rt.ThreadSet { return b.threads }

// threadScanner returns (creating on first use) the stack scanner for
// one thread; thread 0's was created with the collector.
func (b *base) threadScanner(t *rt.Thread) *StackScanner {
	id := t.ID()
	for len(b.tscanners) <= id {
		b.tscanners = append(b.tscanners, nil)
	}
	if b.tscanners[id] == nil {
		b.tscanners[id] = b.newScanner(t.Stack())
	}
	return b.tscanners[id]
}

// noteCollection runs the per-collection scanner bookkeeping over every
// live thread (depth statistics accumulate across threads).
func (b *base) noteCollection() {
	for _, t := range b.threads.Threads() {
		if t.Dead() {
			continue
		}
		b.threadScanner(t).NoteCollection()
	}
}

// chargeOverhead charges the fixed per-collection overhead: serially for
// a single worker, split across workers otherwise — entering a parallel
// collection forks the space preparation and bookkeeping across the
// worker team, so the fixed cost genuinely shrinks on the wall clock
// while the charged total is preserved exactly.
func (b *base) chargeOverhead() {
	if b.tally == nil {
		b.meter.Charge(costmodel.GCCopy, costmodel.GCOverhead)
		return
	}
	b.tally.ChargeSplit(costmodel.GCCopy, costmodel.GCOverhead)
}

// endParallelPhase closes a phase whose work is distributed over the
// simulated workers: the tally's overlap is credited back to the meter
// first (shrinking the phase's wall-clock delta to the critical path),
// then the phase-end event records the per-worker tallies. Serial
// collectors (nil tally) emit a plain phase end.
func (b *base) endParallelPhase(p trace.Phase) {
	if b.tally == nil {
		b.tr.EndPhase(p)
		return
	}
	workers := b.tally.ClosePhase()
	b.tr.EndPhaseWorkers(p, workers)
}

// chargeAlloc charges the mutator for one allocation of size words and
// counts it.
func (b *base) chargeAlloc(k obj.Kind, size uint64) {
	b.meter.Charge(costmodel.Client, costmodel.AllocObject)
	b.meter.ChargeN(costmodel.Client, costmodel.AllocWord, size)
	b.stats.BytesAllocated += size * mem.WordSize
	b.stats.ObjectsAllocated++
	if k == obj.Record {
		b.stats.RecordBytes += size * mem.WordSize
	} else {
		b.stats.ArrayBytes += size * mem.WordSize
	}
}

// noteAlloc reports one allocation of size words at a to the profiler.
func (b *base) noteAlloc(a mem.Addr, site obj.SiteID, k obj.Kind, size uint64, pretenured bool) {
	if b.prof != nil {
		b.prof.OnAlloc(a, site, k, size, pretenured)
	}
}

// losLimit is the large-object share of the budget: up to half the total
// (the semispace and tenured sizing adapt to the live LOS share after
// each sweep).
func (b *base) losLimit() uint64 {
	return b.cfg.BudgetWords / 2
}

// LoadField implements Collector.
func (b *base) LoadField(a mem.Addr, i uint64) uint64 {
	b.meter.Charge(costmodel.Client, costmodel.MutatorLoad)
	return obj.Field(b.heap, a, i)
}

// InitField implements Collector: initializing stores are not pointer
// updates and skip the barrier.
//
//gc:nobarrier initializing stores skip the barrier by design (§6): the semispace collector evacuates the entire heap at every GC and keeps no remembered set; under the generational collector nursery objects are scanned at the next minor GC anyway, and pretenured objects are covered by the allocated-into region rescan
func (b *base) InitField(a mem.Addr, i uint64, v uint64) {
	b.meter.Charge(costmodel.Client, costmodel.MutatorStore)
	obj.SetField(b.heap, a, i, v)
}

// evacuation rearms the pooled evacuator for an evacuation of the
// condemned spaces into to, with this collector's heap, meter, statistics,
// profiler, LOS, trace and worker tally. Pre-existing objects in to
// (allocated before this collection) are not rescanned; scanning starts at
// the current allocation frontier. Every other field starts zero: the
// caller sets the generational roles (tenuredID, old, route, ...) itself.
func (b *base) evacuation(condemned []mem.SpaceID, to *mem.Space) *evacuator {
	e := &b.ev
	if len(condemned) > len(e.condemned) {
		panic(fmt.Sprintf("core: %d condemned spaces exceed the evacuator's capacity", len(condemned)))
	}
	scans := append(e.scans[:0], spaceScan{space: to, next: to.Used() + 1})
	*e = evacuator{
		heap:     b.heap,
		meter:    b.meter,
		stats:    &b.stats,
		prof:     b.prof,
		to:       to,
		los:      b.los,
		tally:    b.tally,
		scans:    scans,
		losQueue: e.losQueue[:0],
	}
	e.ncondemned = copy(e.condemned[:], condemned)
	return e
}

// gcSpan is one open collection: the statistics and the GC clock at its
// start.
type gcSpan struct {
	before GCStats
	start  costmodel.Cycles
}

// beginGC opens a collection: its trace span and pause clock, the
// collection count, and the setup phase with the fixed overhead charged
// and every scanner told. The caller closes the setup phase.
func (b *base) beginGC(major bool) gcSpan {
	b.tr.BeginGC(major)
	s := gcSpan{before: b.stats, start: b.meter.GC()}
	b.stats.NumGC++
	b.tr.BeginPhase(trace.PhaseSetup)
	b.chargeOverhead()
	b.noteCollection()
	return s
}

// endGC closes the collection beginGC opened: it accumulates the pause,
// refreshes the lifetime parallel-work counters from the tally, and ends
// the trace span with the collection's counter deltas.
func (b *base) endGC(s *gcSpan) {
	pause := uint64(b.meter.GC() - s.start)
	b.stats.SumPauseCycles += pause
	if pause > b.stats.MaxPauseCycles {
		b.stats.MaxPauseCycles = pause
	}
	if b.tally != nil {
		b.stats.ParallelQuanta = b.tally.Quanta()
		b.stats.WorkSteals = b.tally.Steals()
	}
	b.tr.EndGC(gcCounters(&s.before, &b.stats))
}

// Heap implements Collector.
func (b *base) Heap() *mem.Heap { return b.heap }

// Stats implements Collector.
func (b *base) Stats() *GCStats { return &b.stats }
