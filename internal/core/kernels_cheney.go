package core

import (
	"fmt"
	"math/bits"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// evacuator implements Cheney's algorithm over the simulated heap: objects
// in condemned spaces are copied to the to-space, a forwarding header is
// installed at the old address, and the to-space is scanned as an implicit
// breadth-first queue. Large objects (which live in the mark-sweep LOS and
// are never copied) are marked and queued for field scanning instead.
//
// The collector skeleton keeps one evacuator value alive across
// collections and rearms it each cycle (base.evacuation), so the scan
// frontiers and LOS queue are pooled: a steady-state minor collection
// allocates nothing on the Go heap.
type evacuator struct {
	heap  *mem.Heap
	meter *costmodel.Meter
	stats *GCStats
	prof  Profiler // may be nil

	// condemned is the set of spaces being collected — at most three
	// (nursery, tenured from-space, aging from-space), so membership is a
	// linear compare over a small array rather than a map probe on every
	// forwarded pointer.
	condemned  [3]mem.SpaceID
	ncondemned int

	to  *mem.Space
	los *LOS // may be nil

	// route, when set, picks the destination space per object (the aging
	// collector sends young survivors to the aging space and old enough
	// ones to the tenured space). nil routes everything to `to`.
	route func(o obj.Object) *mem.Space
	// postCopy, when set, runs after each evacuation (e.g. to bump the
	// copied object's age byte).
	postCopy func(dst mem.Addr, o obj.Object)
	// isYoung+sticky, when set, record old-space fields left pointing at
	// still-young objects: without immediate promotion such fields must
	// be re-examined at every minor collection until their targets
	// tenure, so the collector keeps them in a sticky remembered set.
	isYoung func(mem.SpaceID) bool
	sticky  *[]mem.Addr
	// tenuredID classifies one destination space as tenured for the
	// profiler's per-site promotion counts (space id 0 — the reserved nil
	// space — means none, the semispace case).
	tenuredID mem.SpaceID
	// tally, when non-nil (W > 1), brackets each Cheney drain step as one
	// work quantum for the simulated parallel workers. The work itself
	// still executes in the canonical serial order — only the cycle
	// accounting is sharded — so heap images are byte-identical at every
	// worker count.
	tally *costmodel.WorkerTally

	// old, when non-nil, is the non-moving tenured space's side state:
	// evacuations into it prefer its free lists over the bump frontier,
	// and every copy into it sets the destination's allocation bits. With
	// oldMark also set (non-moving majors only), pointers into it mark
	// their target in place instead of evacuating — the mark phase of
	// mark-sweep and mark-compact.
	old     *oldSpace
	oldMark bool
	// oldFromID, when non-zero, is the tenured from-space of a copying
	// major: evacuations out of it accumulate GCStats.OldBytesCopied, the
	// copy traffic the non-moving collectors eliminate.
	oldFromID mem.SpaceID

	scans    []spaceScan // Cheney frontiers, one per destination space
	losQueue []mem.Addr  // marked large objects awaiting field scan
}

// spaceScan tracks the Cheney scan frontier within one destination space.
type spaceScan struct {
	space *mem.Space
	next  uint64
}

// addDest registers an additional destination space for routing; objects
// copied into it are Cheney-scanned like the primary to-space.
func (e *evacuator) addDest(s *mem.Space) {
	e.scans = append(e.scans, spaceScan{space: s, next: s.Used() + 1})
}

// condemnedDead closes the collection for the profiler: every object
// still recorded in a condemned space died, declared space by space in
// condemned order, then the collection ends.
func (e *evacuator) condemnedDead() {
	if e.prof == nil {
		return
	}
	for _, id := range e.condemned[:e.ncondemned] {
		e.prof.OnSpaceCondemned(id)
	}
	e.prof.OnGCEnd()
}

// isCondemned reports whether space id is being collected this cycle.
func (e *evacuator) isCondemned(id mem.SpaceID) bool {
	for i := 0; i < e.ncondemned; i++ {
		if e.condemned[i] == id {
			return true
		}
	}
	return false
}

// forward treats v as a pointer value and returns its post-collection
// value: the forwarding address for condemned objects (evacuating on first
// visit), v itself for nil and for pointers outside the condemned spaces.
// Pointers into the LOS mark their target live.
func (e *evacuator) forward(v uint64) uint64 {
	a := mem.Addr(v)
	if a.IsNil() {
		return v
	}
	id := a.Space()
	if e.isCondemned(id) {
		return uint64(e.evacuate(a))
	}
	if e.old != nil && id == e.old.id {
		// Non-moving tenured target: never condemned. During a non-moving
		// major (oldMark) the pointer marks its target in place and grays
		// it on first visit — the losQueue doubles as the mark stack, so
		// the drain scans marked tenured objects exactly like marked large
		// objects. Minor collections fall through with the pointer intact,
		// just as the copying collector leaves tenured pointers alone.
		if e.oldMark {
			e.markOld(a)
		}
		return v
	}
	if e.los != nil && e.los.Contains(id) {
		if e.los.Mark(a) {
			e.losQueue = append(e.losQueue, a)
		}
	}
	return v
}

// evacuate copies the object at a into the to-space (or returns the
// existing forwarding address). The header is read once from the source
// arena — the forwarding check, the decode, and the forwarding-pointer
// install all work on that one word — and the payload moves as a single
// bulk copy into an unzeroed destination span (the span is fully
// overwritten, so pre-zeroing it as Alloc does would touch every word
// twice). The meter takes one batched per-word charge — never a
// word-at-a-time loop.
//
//gc:nobarrier Cheney copy kernel: stores land in to-space, which is scanned in full before the mutator resumes
func (e *evacuator) evacuate(a mem.Addr) mem.Addr {
	src := e.heap.Space(a.Space()).Raw()
	off := a.Offset()
	hd := src[off]
	if obj.HeaderKind(hd) == obj.Forwarded {
		return obj.ForwardAddr(hd)
	}
	o := obj.Object{Addr: a, Kind: obj.HeaderKind(hd), Len: obj.HeaderLen(hd), Site: obj.HeaderSite(hd)}
	if o.Kind == obj.Record {
		o.Mask = src[off+1]
	}
	size := o.SizeWords()
	target := e.to
	if e.route != nil {
		target = e.route(o)
	}
	if e.old != nil && target.ID() == e.old.id {
		if fa := e.old.alloc(size); !fa.IsNil() {
			// Promotion into a reclaimed free-list span. The destination is
			// below the Cheney frontier, so the copy grays itself onto the
			// losQueue instead of being picked up by the frontier scan.
			copy(target.Raw()[fa.Offset():fa.Offset()+size], src[off:off+size])
			claimForward(src, off, fa)
			e.finishCopy(fa, o, size)
			e.losQueue = append(e.losQueue, fa)
			return fa
		}
	}
	dst, ok := target.AllocUnzeroed(size)
	if !ok {
		panic(fmt.Sprintf("core: to-space %d overflow evacuating %d words (used %d / cap %d)",
			target.ID(), size, target.Used(), target.Capacity()))
	}
	copy(target.Raw()[dst.Offset():dst.Offset()+size], src[off:off+size])
	claimForward(src, off, dst)
	e.finishCopy(dst, o, size)
	return dst
}

// markOld marks the tenured object at a in place: the mark-bitmap test,
// the range set and gray push on first visit. The caller's quantum
// brackets the charge.
func (e *evacuator) markOld(a mem.Addr) {
	e.meter.Charge(costmodel.GCCopy, costmodel.MarkTest)
	off := a.Offset()
	if e.old.bitSet(off) {
		return
	}
	size := obj.Decode(e.heap, a).SizeWords()
	e.old.setRange(off, size)
	e.stats.ObjectsMarked++
	e.stats.WordsMarked += size
	e.losQueue = append(e.losQueue, a)
}

// claimForward installs the forwarding pointer in the object's header
// word. It is the parallel copy's claim-arbitration point: conceptually
// every worker that reaches the object races a CAS on this word, the
// lowest destination address wins, and ties are resolved by worker rank.
// Because the simulator executes the canonical serial work order, the
// single claim issued here is exactly the arbitrated winner, which is
// what makes the copied heap image byte-identical at every worker count.
func claimForward(src []uint64, off uint64, dst mem.Addr) {
	src[off] = obj.PackForward(dst)
}

// finishCopy issues the metering, statistics, profiler and policy
// callbacks for one completed evacuation, whichever space receives it.
func (e *evacuator) finishCopy(dst mem.Addr, o obj.Object, size uint64) {
	e.meter.Charge(costmodel.GCCopy, costmodel.CopyObject)
	e.meter.ChargeN(costmodel.GCCopy, costmodel.CopyWord, size)
	e.stats.BytesCopied += size * mem.WordSize
	e.stats.ObjectsCopied++
	if e.old != nil && dst.Space() == e.old.id {
		// Non-moving tenured destination: bump-promoted spans set their
		// allocation bits here (free-list promotions already did, in alloc).
		e.old.setRange(dst.Offset(), size)
	}
	if e.oldFromID != 0 && o.Addr.Space() == e.oldFromID {
		e.stats.OldBytesCopied += size * mem.WordSize
	}
	if e.postCopy != nil {
		e.postCopy(dst, o)
	}
	if e.prof != nil {
		e.prof.OnMove(o.Addr, dst, dst.Space() == e.tenuredID)
	}
}

// drain runs the Cheney scan to a fixpoint: every gray object copied into
// the to-space since the evacuator was rearmed (and every marked large
// object) has its pointer fields forwarded, possibly evacuating more
// objects. Each gray object is decoded exactly once — the decoded view
// both drives the field scan and advances the frontier.
func (e *evacuator) drain() {
	for {
		progressed := false
		for i := range e.scans {
			s := &e.scans[i]
			for s.next <= s.space.Used() {
				s.next += e.scanAt(s.space, s.next)
				progressed = true
			}
		}
		for len(e.losQueue) > 0 {
			a := e.losQueue[len(e.losQueue)-1]
			e.losQueue = e.losQueue[:len(e.losQueue)-1]
			e.scanDecoded(obj.Decode(e.heap, a))
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// scanAt forwards every pointer field of the live object at offset off in
// sp and returns the object's footprint in words. It is the frontier-scan
// kernel: header, mask, and fields are all read and rewritten through the
// space's raw arena, so the inner loop performs no per-word space lookup
// and no Addr arithmetic.
//
// Quantum granularity is one pointer field, not one object: a field
// forward can evacuate its target, and a single wide array (the server
// workloads' session tables) would otherwise pull hundreds of
// evacuations into one indivisible quantum and pin the whole subgraph's
// copy cost on one worker. Field-level quanta are the simulated
// equivalent of the array-splitting real parallel scavengers do — large
// objects enter the shared frontier as chunks, not as a unit.
//
//gc:nobarrier frontier-scan kernel: it rewrites to-space fields during the stop-the-world scan that the barrier invariant is defined against
func (e *evacuator) scanAt(sp *mem.Space, off uint64) uint64 {
	words := sp.Raw()
	hd := words[off]
	k := obj.HeaderKind(hd)
	length := obj.HeaderLen(hd)
	size := obj.SizeWords(k, length)
	e.tally.BeginQuantum()
	e.meter.ChargeN(costmodel.GCCopy, costmodel.ScanWord, size)
	e.tally.EndQuantum()
	switch k {
	case obj.RawArray:
	case obj.PtrArray:
		base := off + 1
		for i := uint64(0); i < length; i++ {
			e.tally.BeginQuantum()
			e.forwardWord(words, sp.ID(), base+i)
			e.tally.EndQuantum()
		}
	case obj.Record:
		base := off + 2
		for mask := words[off+1]; mask != 0; mask &= mask - 1 {
			e.tally.BeginQuantum()
			e.forwardWord(words, sp.ID(), base+uint64(bits.TrailingZeros64(mask)))
			e.tally.EndQuantum()
		}
	default:
		panic(fmt.Sprintf("core: scanning %v object at %v", k, mem.MakeAddr(sp.ID(), off)))
	}
	return size
}

// forwardWord rewrites the pointer stored at words[off] of space sid —
// forwardField minus the Heap.Load/Store space lookups.
func (e *evacuator) forwardWord(words []uint64, sid mem.SpaceID, off uint64) {
	v := words[off]
	nv := e.forward(v)
	if nv != v {
		words[off] = nv
	}
	if e.isYoung != nil && nv != 0 &&
		!e.isYoung(sid) && e.isYoung(mem.Addr(nv).Space()) {
		*e.sticky = append(*e.sticky, mem.MakeAddr(sid, off))
	}
}

// scanObject forwards every pointer field of the live object at a.
func (e *evacuator) scanObject(a mem.Addr) {
	e.scanDecoded(obj.Decode(e.heap, a))
}

// scanDecoded forwards every pointer field of the decoded live object.
// Record fields walk the pointer bitmap with a trailing-zeros scan, so the
// cost is proportional to the number of pointer fields, not the arity.
// Quanta are per field, matching scanAt (large objects in particular are
// chunked across workers, not scanned as one unit).
func (e *evacuator) scanDecoded(o obj.Object) {
	e.tally.BeginQuantum()
	e.meter.ChargeN(costmodel.GCCopy, costmodel.ScanWord, o.SizeWords())
	e.tally.EndQuantum()
	switch o.Kind {
	case obj.RawArray:
		return
	case obj.PtrArray:
		for i := uint64(0); i < o.Len; i++ {
			e.tally.BeginQuantum()
			e.forwardField(o.PayloadAddr(i))
			e.tally.EndQuantum()
		}
	case obj.Record:
		for mask := o.Mask; mask != 0; mask &= mask - 1 {
			e.tally.BeginQuantum()
			e.forwardField(o.PayloadAddr(uint64(bits.TrailingZeros64(mask))))
			e.tally.EndQuantum()
		}
	default:
		panic(fmt.Sprintf("core: scanning %v object at %v", o.Kind, o.Addr))
	}
}

// forwardField rewrites the pointer stored at field address fa.
//
//gc:nobarrier collector-internal pointer rewrite during evacuation; the slot's owner is either a root or an object the scan will cover
func (e *evacuator) forwardField(fa mem.Addr) {
	v := e.heap.Load(fa)
	nv := e.forward(v)
	if nv != v {
		e.heap.Store(fa, nv)
	}
	if e.isYoung != nil && nv != 0 &&
		!e.isYoung(fa.Space()) && e.isYoung(mem.Addr(nv).Space()) {
		*e.sticky = append(*e.sticky, fa)
	}
}
