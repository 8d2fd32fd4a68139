package core

import (
	"fmt"
	"math/bits"
	"sort"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// The sliding compaction of the non-moving mark-compact old generation
// (Config.OldCollector == OldMarkCompact). After the mark phase has
// rebuilt the bitmap, compaction runs three passes over the tenured
// space:
//
//	A (plan)  — derive the run table: maximal live runs with their slide
//	            destinations (dense repacking in allocation order), and
//	            account each dead object's reclamation.
//	B (fixup) — rewrite every pointer to a tenured object through the run
//	            table, before anything moves: captured stack roots, live
//	            tenured objects' fields, live large objects' fields.
//	C (slide) — move each run's objects down; runs already in place cost
//	            nothing.
//
// Passes A–C discover runs and object boundaries from the bitmap and raw
// headers rather than decoding objects through the checked interface.

// rootFixEntry is one stack-root location captured during the root scan
// of a compacting major: it held (after forwarding) a pointer into the
// tenured space, so pass B must revisit it once slide destinations are
// known.
type rootFixEntry struct {
	st  *rt.Stack
	loc RootLoc
}

// compactRun is one maximal run of live tenured objects: words
// [src, src+size) slide to [dst, dst+size), dst <= src.
type compactRun struct {
	src  uint64
	dst  uint64
	size uint64
}

// remapOldOffset returns the post-slide offset of a marked tenured word.
// Every tenured pointer reachable at fixup time targets a marked object,
// so a miss is collector corruption, not a legal state.
func remapOldOffset(runs []compactRun, off uint64) uint64 {
	i := sort.Search(len(runs), func(i int) bool { return runs[i].src+runs[i].size > off })
	if i == len(runs) || off < runs[i].src {
		panic(fmt.Sprintf("core: compaction fixup of unmarked tenured offset %d", off))
	}
	return runs[i].dst + (off - runs[i].src)
}

// compactOld slides the marked tenured objects toward the space base.
func (c *Generational) compactOld() {
	runs := c.compactPlan()
	c.compactFixRoots(runs)
	c.compactFixHeap(runs)
	c.compactFixLOS(runs)
	c.compactFinish(c.compactSlide(runs))
}

// compactDead accounts one dead tenured object discovered by the plan
// walk: the per-object sweep charge and the profiler death. Unlike the
// mark-sweep collector nothing is "returned to free lists" — the slide
// reclaims by repacking — so WordsSwept stays untouched.
func (c *Generational) compactDead(off uint64) {
	c.tally.BeginQuantum()
	c.meter.Charge(costmodel.GCCopy, costmodel.SweepObject)
	if c.prof != nil {
		c.prof.OnLOSDead(mem.MakeAddr(c.old.id, off))
	}
	c.tally.EndQuantum()
}

// compactPlan is pass A: live runs come straight off
// the bitmap (one trailing-zeros stride per run, no header decodes);
// only dead objects are decoded, from raw header reads.
//
//gc:nobarrier plan walk only reads raw headers of dead objects; it stores nothing
func (c *Generational) compactPlan() []compactRun {
	os := c.old
	sp := c.heap.Space(os.id)
	used := sp.Used()
	os.ensureBitmap(used)
	c.sweepOldStripes(used)
	w := sp.Raw()
	var runs []compactRun
	newOff := uint64(1)
	off := uint64(1)
	for off <= used {
		if os.bitSet(off) {
			end := os.nextClearOffset(off, used)
			runs = append(runs, compactRun{src: off, dst: newOff, size: end - off})
			newOff += end - off
			off = end
			continue
		}
		hd := w[off]
		size := obj.SizeWords(obj.HeaderKind(hd), obj.HeaderLen(hd))
		c.compactDead(off)
		off += size
	}
	return runs
}

// compactFixRoots rewrites the stack-root locations captured during the
// root scan (root access goes through the runtime stack, not the heap).
// One quantum and one pointer test per captured location.
func (c *Generational) compactFixRoots(runs []compactRun) {
	os := c.old
	for _, rf := range c.rootFix {
		c.tally.BeginQuantum()
		c.meter.Charge(costmodel.GCCopy, costmodel.ScanPtrTest)
		if rf.loc.IsReg {
			v := rf.st.Reg(rf.loc.Index)
			if a := mem.Addr(v); !a.IsNil() && a.Space() == os.id {
				rf.st.SetReg(rf.loc.Index, uint64(mem.MakeAddr(os.id, remapOldOffset(runs, a.Offset()))))
			}
		} else {
			v := rf.st.RawSlot(rf.loc.Index)
			if a := mem.Addr(v); !a.IsNil() && a.Space() == os.id {
				rf.st.SetRawSlot(rf.loc.Index, uint64(mem.MakeAddr(os.id, remapOldOffset(runs, a.Offset()))))
			}
		}
		c.tally.EndQuantum()
	}
	c.rootFix = c.rootFix[:0]
}

// compactFixHeap is pass B over the tenured space: raw
// header and mask reads locate the pointer fields of every live object
// (one quantum per object, one pointer test per field examined).
//
//gc:nobarrier compaction fixup rewrites collector-discovered pointers while the world is stopped; every rewrite targets the same live object at its post-slide address
func (c *Generational) compactFixHeap(runs []compactRun) {
	os := c.old
	w := c.heap.Space(os.id).Raw()
	for _, r := range runs {
		for off := r.src; off < r.src+r.size; {
			hd := w[off]
			k := obj.HeaderKind(hd)
			length := obj.HeaderLen(hd)
			c.tally.BeginQuantum()
			switch k {
			case obj.PtrArray:
				base := off + 1
				for i := uint64(0); i < length; i++ {
					c.meter.Charge(costmodel.GCCopy, costmodel.ScanPtrTest)
					c.remapWordRaw(runs, w, base+i)
				}
			case obj.Record:
				base := off + 2
				for m := w[off+1]; m != 0; m &= m - 1 {
					c.meter.Charge(costmodel.GCCopy, costmodel.ScanPtrTest)
					c.remapWordRaw(runs, w, base+uint64(bits.TrailingZeros64(m)))
				}
			}
			c.tally.EndQuantum()
			off += obj.SizeWords(k, length)
		}
	}
}

// remapWordRaw rewrites one raw word in place when it is a pointer into
// the tenured space.
func (c *Generational) remapWordRaw(runs []compactRun, w []uint64, off uint64) {
	if a := mem.Addr(w[off]); !a.IsNil() && a.Space() == c.old.id {
		w[off] = uint64(mem.MakeAddr(c.old.id, remapOldOffset(runs, a.Offset())))
	}
}

// compactFixLOS rewrites tenured pointers held by live (marked) large
// objects, in ascending space-id order. The LOS is sparse, so the
// checked per-object walk is the natural shape here.
//
//gc:nobarrier compaction fixup of large-object fields while the world is stopped; rewrites retarget the same live tenured objects
func (c *Generational) compactFixLOS(runs []compactRun) {
	os := c.old
	for _, id := range c.los.ids {
		a, ok := c.los.ObjectIn(id)
		if !ok || !c.los.Marked(a) {
			continue
		}
		o := obj.Decode(c.heap, a)
		c.tally.BeginQuantum()
		if o.Kind != obj.RawArray {
			for i := uint64(0); i < o.Len; i++ {
				if !o.IsPtrField(i) {
					continue
				}
				c.meter.Charge(costmodel.GCCopy, costmodel.ScanPtrTest)
				fa := o.PayloadAddr(i)
				if aa := mem.Addr(c.heap.Load(fa)); !aa.IsNil() && aa.Space() == os.id {
					c.heap.Store(fa, uint64(mem.MakeAddr(os.id, remapOldOffset(runs, aa.Offset()))))
				}
			}
		}
		c.tally.EndQuantum()
	}
}

// compactSlide is pass C: bulk word copies on the raw
// space, per object (dst < src within a moving run, and runs slide in
// ascending order, so every source is intact when read). Runs already at
// their destination are skipped outright — the common case for the
// long-lived prefix, and the reason sliding preserves allocation order
// cheaply.
//
//gc:nobarrier the slide moves whole live objects downward while the world is stopped; pass B already rewrote every pointer to its destination
func (c *Generational) compactSlide(runs []compactRun) uint64 {
	os := c.old
	w := c.heap.Space(os.id).Raw()
	var live uint64
	for _, r := range runs {
		live += r.size
		if r.dst == r.src {
			continue
		}
		src, dst := r.src, r.dst
		for src < r.src+r.size {
			hd := w[src]
			size := obj.SizeWords(obj.HeaderKind(hd), obj.HeaderLen(hd))
			c.tally.BeginQuantum()
			c.meter.ChargeN(costmodel.GCCopy, costmodel.SlideWordTest, size)
			c.stats.WordsSlid += size
			copy(w[dst:dst+size], w[src:src+size])
			if c.prof != nil {
				c.prof.OnMove(mem.MakeAddr(os.id, src), mem.MakeAddr(os.id, dst), false)
			}
			c.tally.EndQuantum()
			src += size
			dst += size
		}
	}
	return live
}

// compactFinish re-establishes the space and bitmap after the slide:
// live words occupy [1, live], the allocation frontier drops back to the
// live boundary (Reset keeps the dirty high-water mark, so the abandoned
// tail is lazily re-zeroed by future bump allocations), the bitmap
// becomes the dense allocation reading, and the free lists — always
// empty under mark-compact — are reset for form's sake.
func (c *Generational) compactFinish(live uint64) {
	os := c.old
	sp := c.heap.Space(os.id)
	sp.Reset()
	if live > 0 {
		if _, ok := sp.AllocUnzeroed(live); !ok {
			panic("core: tenured space cannot re-admit its own live data after compaction")
		}
	}
	os.resetFree()
	os.clearBitmap()
	if live > 0 {
		os.setRange(1, live)
	}
}
