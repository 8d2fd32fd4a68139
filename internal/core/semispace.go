package core

import (
	"fmt"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
	"tilgc/internal/trace"
)

// Semispace is the Fenichel-Yochelson two-space copying collector using
// Cheney's scan, with the paper's liveness-ratio resize policy (§2.1).
type Semispace struct {
	base

	idA mem.SpaceID
	idB mem.SpaceID
	cur *mem.Space // allocation space
}

// NewSemispace creates a semispace collector over its own fresh heap.
//
//gc:nocharge construction builds the heap before the simulated clock starts; the paper's cost model charges mutator and GC work, not arena setup
func NewSemispace(stack *rt.Stack, meter *costmodel.Meter, prof Profiler, cfg Config) *Semispace {
	cfg.setDefaults()
	if cfg.InitialWords > cfg.BudgetWords/2 {
		cfg.InitialWords = max(cfg.BudgetWords/2, 512)
	}
	c := &Semispace{}
	c.init(stack, meter, prof, cfg)
	a := c.heap.AddSpace(cfg.InitialWords)
	b := c.heap.AddSpace(0)
	c.idA, c.idB = a.ID(), b.ID()
	c.cur = a
	return c
}

// scanRoots scans every live thread's stack in thread-id order.
func (c *Semispace) scanRoots(ev *evacuator) {
	for _, t := range c.threads.Threads() {
		if t.Dead() {
			continue
		}
		st := t.Stack()
		c.threadScanner(t).Scan(false, func(loc RootLoc) { c.forwardRootOn(ev, st, loc) })
	}
}

// Name implements Collector.
func (c *Semispace) Name() string {
	n := "semispace"
	if c.cfg.MarkerN > 0 {
		n += "+markers"
	}
	if c.cfg.GCWorkers > 1 {
		n += fmt.Sprintf("+gcw%d", c.cfg.GCWorkers)
	}
	return n
}

// Alloc implements Collector. The common case — a small object into a
// space with room — runs straight through the bump allocation: records can
// never be large, so they skip the LOS threshold compare entirely, and the
// collect-and-retry sequence is kept out of line.
func (c *Semispace) Alloc(k obj.Kind, length uint64, site obj.SiteID, mask uint64) mem.Addr {
	size := obj.SizeWords(k, length)
	c.chargeAlloc(k, size)
	if k != obj.Record && length >= c.cfg.LargeObjectWords {
		return c.allocLarge(k, length, site, mask, size)
	}
	a, ok := obj.Alloc(c.heap, c.cur, k, length, site, mask)
	if !ok {
		a = c.allocSlow(k, length, site, mask, size)
	}
	c.noteAlloc(a, site, k, size, false)
	return a
}

// allocLarge is the LOS allocation path, collecting first when the
// large-object share of the budget is exhausted.
func (c *Semispace) allocLarge(k obj.Kind, length uint64, site obj.SiteID, mask uint64, size uint64) mem.Addr {
	if c.los.UsedWords()+size > c.losLimit() {
		c.Collect(true)
	}
	a := c.los.Alloc(k, length, site, mask)
	c.noteAlloc(a, site, k, size, false)
	return a
}

// allocSlow collects and retries the bump allocation, growing past the
// budget as a last resort.
func (c *Semispace) allocSlow(k obj.Kind, length uint64, site obj.SiteID, mask uint64, size uint64) mem.Addr {
	c.Collect(true)
	a, ok := obj.Alloc(c.heap, c.cur, k, length, site, mask)
	if !ok {
		// The live set genuinely exceeds the budget share (Min is
		// measured by calibration and can be slightly low). Grow past
		// the budget rather than dying; the overflow is recorded.
		c.stats.EmergencyGrows++
		c.cur = c.heap.GrowSpace(c.cur.ID(), c.cur.Capacity()+size+1024)
		a, ok = obj.Alloc(c.heap, c.cur, k, length, site, mask)
		if !ok {
			panic(semispaceGrowthFailure(c.cur, size))
		}
	}
	return a
}

// semispaceGrowthFailure builds the panic value for an emergency growth
// that still could not satisfy a size-word allocation, reporting the
// space id, used words, and requested words — the same fields, in the
// same shape, as mem.GrowSpace's below-used failure.
func semispaceGrowthFailure(sp *mem.Space, size uint64) mem.GrowthError {
	return mem.GrowthError{Op: "semispace emergency growth failed", Space: sp.ID(), Used: sp.Used(), Requested: size}
}

// StoreField implements Collector. The semispace collector has no write
// barrier; isPtr is accepted for interface compatibility.
//
//gc:nobarrier the semispace collector evacuates the entire heap at every GC; there is no remembered set for a barrier to maintain
func (c *Semispace) StoreField(a mem.Addr, i uint64, v uint64, isPtr bool) {
	c.meter.Charge(costmodel.Client, costmodel.MutatorStore)
	obj.SetField(c.heap, a, i, v)
}

// targetLiveness is the semispace resize target r: after a collection
// with observed liveness r' the semispace is resized by r'/r, clamped to
// the budget. The paper uses r = 0.10.
const targetLiveness = 0.10

// Collect implements Collector: a full copying collection with Cheney's
// algorithm, followed by the r'/r resize.
func (c *Semispace) Collect(bool) {
	span := c.beginGC(false)
	defer func() {
		c.sampleHeap()
		c.endGC(&span)
	}()
	c.los.ClearMarks()

	fromID, toID := c.idA, c.idB
	if c.cur.ID() != fromID {
		fromID, toID = toID, fromID
	}
	// The survivors cannot exceed what was allocated in from-space.
	to := c.heap.ReplaceSpace(toID, c.cur.Used())
	condemned := [1]mem.SpaceID{fromID}
	ev := c.evacuation(condemned[:], to)
	c.endParallelPhase(trace.PhaseSetup)

	// With workers, the root scan shards per frame: each frame's quantum
	// covers its decode, root visits, and the evacuations they trigger
	// (the scanner brackets them — see StackScanner.SetTally).
	c.tr.BeginPhase(trace.PhaseRoots)
	c.scanRoots(ev)
	c.endParallelPhase(trace.PhaseRoots)
	c.tr.BeginPhase(trace.PhaseCopy)
	ev.drain()
	c.endParallelPhase(trace.PhaseCopy)
	c.tr.BeginPhase(trace.PhaseSweep)
	c.los.Sweep(c.prof, nil)
	c.tr.EndPhase(trace.PhaseSweep)
	c.los.TakeFresh()
	ev.condemnedDead()

	live := to.Used()
	liveBytes := (live + c.los.UsedWords()) * mem.WordSize
	if liveBytes > c.stats.MaxLiveBytes {
		c.stats.MaxLiveBytes = liveBytes
	}

	// Resize: newSize = oldSize · r'/r = live/r, clamped to [live·1.25,
	// budget share]. Live data in the mark-sweep large-object space counts
	// toward the liveness ratio — the space budget is shared.
	oldCap := c.heap.Space(fromID).Capacity()
	rPrime := float64(live+c.los.UsedWords()) / float64(max(oldCap, 1))
	newSize := uint64(float64(oldCap) * rPrime / targetLiveness)
	minSize := live + live/4 + 256
	maxSize := c.semispaceShare()
	if newSize < minSize {
		newSize = minSize
	}
	if newSize > maxSize {
		newSize = maxSize
	}
	if newSize < live+64 {
		newSize = live + 64 // budget exhausted; keep limping with minimum headroom
	}
	c.cur = c.heap.GrowSpace(toID, newSize)
	c.heap.ReplaceSpace(fromID, 0)
}

// semispaceShare returns the budget available to each semispace.
func (c *Semispace) semispaceShare() uint64 {
	losWords := c.los.UsedWords()
	if 2*losWords >= c.cfg.BudgetWords {
		return 512
	}
	return (c.cfg.BudgetWords - losWords) / 2
}

// forwardRootOn forwards the pointer stored at a root location of one
// thread's stack.
func (c *Semispace) forwardRootOn(ev *evacuator, st *rt.Stack, loc RootLoc) {
	c.stats.RootsFound++
	if loc.IsReg {
		v := st.Reg(loc.Index)
		if nv := ev.forward(v); nv != v {
			st.SetReg(loc.Index, nv)
		}
		return
	}
	v := st.RawSlot(loc.Index)
	if nv := ev.forward(v); nv != v {
		st.SetRawSlot(loc.Index, nv)
	}
}
