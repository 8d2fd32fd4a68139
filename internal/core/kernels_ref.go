package core

import (
	"fmt"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// This file preserves the first-draft ("reference") copy/scan kernels
// verbatim. They are never used in production — SetReferenceKernels
// selects them so that TestKernelEquivalence,
// TestReferenceKernelsObservationallyIdentical and the fuzz fleet's
// reference-kernel oracle can prove the optimized kernels observationally
// identical. Every meter charge here is issued in exactly the same order
// and amount as the optimized kernels.

// refDrain is the reference Cheney scan: like drain, but each gray object
// is decoded twice (once to scan, once to advance the frontier).
func (e *evacuator) refDrain() {
	for {
		progressed := false
		for i := range e.scans {
			s := &e.scans[i]
			for s.next <= s.space.Used() {
				a := mem.MakeAddr(s.space.ID(), s.next)
				e.refScanObject(a)
				s.next += obj.Decode(e.heap, a).SizeWords()
				progressed = true
			}
		}
		for len(e.losQueue) > 0 {
			a := e.losQueue[len(e.losQueue)-1]
			e.losQueue = e.losQueue[:len(e.losQueue)-1]
			e.refScanObject(a)
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// refEvacuate is the reference copy kernel: it re-reads the header through
// Heap.Load once for the forwarding check and again to decode, and
// allocates the destination span zeroed (Alloc) before immediately
// overwriting every word with the copy.
//
//gc:nobarrier reference copy kernel: stores land in to-space, which is scanned in full before the mutator resumes
func (e *evacuator) refEvacuate(a mem.Addr) mem.Addr {
	if obj.IsForwarded(e.heap, a) {
		return obj.Forwarding(e.heap, a)
	}
	o := obj.Decode(e.heap, a)
	size := o.SizeWords()
	target := e.to
	if e.route != nil {
		target = e.route(o)
	}
	if e.old != nil && target.ID() == e.old.id {
		if fa := e.old.alloc(size); !fa.IsNil() {
			// Same free-list promotion as the optimized kernel, through the
			// checked heap interface; the destination sits below the Cheney
			// frontier, so it grays itself onto the losQueue.
			e.heap.Copy(fa, a, size)
			obj.SetForward(e.heap, a, fa)
			e.finishCopy(fa, o, size)
			e.losQueue = append(e.losQueue, fa)
			return fa
		}
	}
	dst, ok := target.Alloc(size)
	if !ok {
		panic(fmt.Sprintf("core: to-space %d overflow evacuating %d words (used %d / cap %d)",
			target.ID(), size, target.Used(), target.Capacity()))
	}
	e.heap.Copy(dst, a, size)
	// Same claim-arbitration contract as claimForward in the optimized
	// kernel: the serial order's single install is the lowest-address
	// winner of the conceptual per-worker CAS race.
	obj.SetForward(e.heap, a, dst)
	e.finishCopy(dst, o, size)
	return dst
}

// refScanObject is the reference field scan: records walk every bit of the
// pointer mask with a shift loop, visiting set bits in the same ascending
// order as the optimized trailing-zeros scan. Quantum placement — one for
// the scan charge, one per pointer field — mirrors scanAt/scanDecoded
// exactly, so the simulated worker schedule is kernel-independent.
func (e *evacuator) refScanObject(a mem.Addr) {
	o := obj.Decode(e.heap, a)
	e.beginQ()
	e.meter.ChargeN(costmodel.GCCopy, costmodel.ScanWord, o.SizeWords())
	e.endQ()
	switch o.Kind {
	case obj.RawArray:
		return
	case obj.PtrArray:
		for i := uint64(0); i < o.Len; i++ {
			e.beginQ()
			e.forwardField(o.PayloadAddr(i))
			e.endQ()
		}
	case obj.Record:
		mask := o.Mask
		for i := uint64(0); mask != 0; i++ {
			if mask&1 == 1 {
				e.beginQ()
				e.forwardField(o.PayloadAddr(i))
				e.endQ()
			}
			mask >>= 1
		}
	default:
		panic(fmt.Sprintf("core: scanning %v object at %v", o.Kind, a))
	}
}

// refProcessBarrier is the reference remembered-set drain: the SSB path
// clones the buffer (Entries) and the card path materializes fresh id and
// field-address slices per collection.
func (c *Generational) refProcessBarrier(ev *evacuator) {
	nid := c.nursery.ID()
	if c.cards != nil {
		for _, fa := range c.refCardFieldAddrs() {
			c.beginQ()
			c.forwardIfYoung(ev, fa, nid)
			c.endQ()
		}
		c.cards.Drain()
		return
	}
	drain := func(b *rt.SSB) {
		for _, fa := range b.Entries() {
			c.beginQ()
			c.meter.Charge(costmodel.GCCopy, costmodel.SSBEntry)
			c.stats.SSBProcessed++
			if !c.isYoung(fa.Space()) {
				// A young-space update needs no forwarding: the object's copy
				// (if live) is fully scanned during evacuation anyway.
				c.forwardIfYoung(ev, fa, nid)
			}
			c.endQ()
		}
		b.Drain()
	}
	// Thread-id order, dead threads included — same contract as the
	// optimized drain.
	for _, t := range c.threads.Threads() {
		drain(t.SSB())
	}
}

// refCardFieldAddrs expands dirty cards to the pointer-field addresses
// they cover, as a freshly allocated slice per collection. It shares the
// object-precise per-space resolution with the optimized kernel: card
// expansion must consult object layout in both, or a raw word aliasing
// a young address would be treated as a pointer (the seed 3892/29187
// corpus pins).
func (c *Generational) refCardFieldAddrs() []mem.Addr {
	var out []mem.Addr
	cards := c.cards.Cards()
	for i, j := 0, 0; i < len(cards); i = j {
		first, _ := c.cards.CardBounds(cards[i])
		spid := first.Space()
		for j = i + 1; j < len(cards); j++ {
			if s, _ := c.cards.CardBounds(cards[j]); s.Space() != spid {
				break
			}
		}
		out = c.appendSpaceCardFAs(out, spid, cards[i:j])
	}
	return out
}
