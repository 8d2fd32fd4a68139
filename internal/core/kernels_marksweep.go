package core

import (
	"math/bits"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// The tenured bitmap sweep of the non-moving mark-sweep old generation
// (Config.OldCollector == OldMarkSweep). The mark phase (the evacuator
// drain with oldMark set) has rebuilt the bitmap as the live set; the
// sweep walks the space once, charges the bitmap examination per 64-word
// stripe, reclaims every unmarked object, and rebuilds the free lists
// from the coalesced free runs — dead objects and pre-existing fillers
// merge into a single filler per run, exactly the coalescing the LOS
// sweep performs at arena granularity.

// sweepOldStripes charges the bitmap examination: one SweepWordTest per
// 64-word stripe of the used region, each bracketed as one parallel work
// quantum.
func (c *Generational) sweepOldStripes(used uint64) {
	for n := (used + 63) / 64; n > 0; n-- {
		c.tally.BeginQuantum()
		c.meter.Charge(costmodel.GCCopy, costmodel.SweepWordTest)
		c.tally.EndQuantum()
	}
}

// sweepOldDead accounts one dead tenured object: the per-object sweep
// charge, the reclaimed words, and the profiler death (the profiler
// classifies the death from its own record, so tenured and large-object
// deaths share the callback).
func (c *Generational) sweepOldDead(off, size uint64) {
	c.tally.BeginQuantum()
	c.meter.Charge(costmodel.GCCopy, costmodel.SweepObject)
	c.stats.WordsSwept += size
	if c.prof != nil {
		c.prof.OnLOSDead(mem.MakeAddr(c.old.id, off))
	}
	c.tally.EndQuantum()
}

// sweepOld reclaims every unmarked tenured object into the free lists.
// Live runs are skipped via the bitmap without touching their headers;
// only dead objects (clear bits off the free-span cursor) are decoded,
// from a raw header read.
//
//gc:nobarrier sweep kernel: it rewrites dead storage into pointer-free fillers while the world is stopped
func (c *Generational) sweepOld() {
	os := c.old
	sp := c.heap.Space(os.id)
	used := sp.Used()
	os.ensureBitmap(used)
	c.sweepOldStripes(used)
	spans := os.freeSpans()
	os.resetFree()
	w := sp.Raw()
	k := 0
	var runOff, runLen uint64
	off := uint64(1)
	for off <= used {
		if k < len(spans) && spans[k].off == off {
			// Pre-existing filler: already free, no sweep charge — it
			// joins the current run so adjacent holes coalesce.
			if runLen == 0 {
				runOff = off
			}
			runLen += spans[k].size
			off += spans[k].size
			k++
			continue
		}
		if os.bitSet(off) {
			os.emitFreeRun(runOff, runLen)
			runLen = 0
			off = os.nextClearOffset(off, used)
			continue
		}
		hd := w[off]
		size := obj.SizeWords(obj.HeaderKind(hd), obj.HeaderLen(hd))
		c.sweepOldDead(off, size)
		if runLen == 0 {
			runOff = off
		}
		runLen += size
		off += size
	}
	os.emitFreeRun(runOff, runLen)
}

// nextClearOffset returns the first offset >= off whose bitmap bit is
// clear, capped at used+1 — the sweep and compaction live-run stride, a
// trailing-zeros scan over inverted bitmap words (the same technique the
// Cheney frontier scan uses on record pointer masks).
func (os *oldSpace) nextClearOffset(off, used uint64) uint64 {
	first := (off - 1) >> 6
	for w := first; w < uint64(len(os.bitmap)); w++ {
		inv := ^os.bitmap[w]
		if w == first {
			inv &= ^uint64(0) << ((off - 1) & 63)
		}
		if inv != 0 {
			j := w<<6 + uint64(bits.TrailingZeros64(inv))
			if j >= used {
				return used + 1
			}
			return j + 1
		}
	}
	return used + 1
}
