package sanitize

import (
	"fmt"

	"tilgc/internal/core"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// The non-moving old generation's invariant passes. The copying old
// generation keeps no bitmap or free lists, so both passes are vacuous
// for it (Inspection.OldCollector stays OldCopy); for the mark-sweep and
// mark-compact collectors they independently re-derive the two structures
// the collectors rely on:
//
//   - oldbitmap: the mark/allocation bitmap is bit-exact against the
//     heap — every allocated word's bit set, every free (filler) word's
//     bit clear, nothing set beyond the allocation frontier — and, when
//     no mutator activity has happened since the last non-moving major
//     (OldMarksFresh), every allocated tenured object is reachable from
//     the roots: the bitmap then claims to be the traced live set, so a
//     marked-but-unreachable object is a mark the collector invented.
//
//   - freelist: the free spans are sorted, disjoint, in bounds, each
//     backed by exactly one span-sized filler object, the free-word
//     counter equals their sum, and free plus live words tile the
//     allocation frontier exactly.

// oldBitSet reads bit off-1 of the snapshot bitmap (word offset off).
func (ck *checker) oldBitSet(off uint64) bool {
	i := off - 1
	w := i >> 6
	if w >= uint64(len(ck.in.OldBitmap)) {
		return false
	}
	return ck.in.OldBitmap[w]>>(i&63)&1 == 1
}

// oldFreeStarts indexes the free spans by starting offset, once per check.
func (ck *checker) oldFreeStarts() map[uint64]uint64 {
	if len(ck.free) == 0 {
		for _, s := range ck.in.OldFreeSpans {
			ck.free[s.Start] = s.Size
		}
	}
	return ck.free
}

// checkOldBitmap verifies the mark/allocation bitmap against the heap.
func (ck *checker) checkOldBitmap() {
	if ck.in.OldCollector == core.OldCopy {
		return
	}
	id := ck.in.OldSpaces[0]
	sp := ck.in.Heap.Space(id)
	if sp == nil {
		return
	}
	used := sp.Used()
	free := ck.oldFreeStarts()

	for _, o := range ck.walkSpace(id) {
		off := o.Addr.Offset()
		size := o.SizeWords()
		if sz, isFree := free[off]; isFree && sz == size {
			for i := off; i < off+size; i++ {
				if ck.oldBitSet(i) {
					ck.report(Violation{Pass: "oldbitmap", Gen: "old", Addr: mem.MakeAddr(id, i),
						Msg: fmt.Sprintf("free span [%d,%d) has its word-%d bit set", off, off+size, i)})
					break
				}
			}
			continue
		}
		for i := off; i < off+size; i++ {
			if !ck.oldBitSet(i) {
				ck.report(Violation{Pass: "oldbitmap", Gen: "old", Addr: o.Addr, Site: o.Site,
					Msg: fmt.Sprintf("allocated object [%d,%d) has its word-%d bit clear", off, off+size, i)})
				break
			}
		}
	}

	for i := used + 1; i <= uint64(len(ck.in.OldBitmap))*64; i++ {
		if ck.oldBitSet(i) {
			ck.report(Violation{Pass: "oldbitmap", Gen: "old", Addr: mem.MakeAddr(id, i),
				Msg: fmt.Sprintf("bit set for word %d beyond the allocation frontier %d", i, used)})
			break
		}
	}

	if ck.in.OldMarksFresh {
		reach := ck.reachableOldOffsets(id)
		for _, o := range ck.walkSpace(id) {
			off := o.Addr.Offset()
			if sz, isFree := free[off]; isFree && sz == o.SizeWords() {
				continue
			}
			if !reach[off] {
				ck.report(Violation{Pass: "oldbitmap", Gen: "old", Addr: o.Addr, Site: o.Site,
					Msg: "object marked live by the fresh bitmap is unreachable from the roots"})
			}
		}
	}
}

// reachableOldOffsets re-derives reachability from the stack roots and
// returns the offsets of reached objects in the old space id (a scratch
// set, valid until the next traversal in this check). Malformed
// or forwarded objects terminate their branch silently — the headers and
// fromspace passes own reporting those.
func (ck *checker) reachableOldOffsets(id mem.SpaceID) map[uint64]bool {
	heap := ck.in.Heap
	seen, reach := ck.seen, ck.reach
	clear(seen)
	clear(reach)
	queue := ck.queue[:0]
	push := func(v uint64) {
		a := mem.Addr(v)
		if a.IsNil() || seen[a] {
			return
		}
		sid := a.Space()
		if int(sid) <= 0 || int(sid) >= heap.NumSpaces() || !ck.isLive(sid) {
			return
		}
		sp := heap.Space(sid)
		if sp == nil || !sp.Contains(a) || obj.IsForwarded(heap, a) {
			return
		}
		seen[a] = true
		if sid == id {
			reach[a.Offset()] = true
		}
		queue = append(queue, a)
	}
	ck.eachRootStack(func(_ int, st *rt.Stack) {
		ck.roots = stackRoots(ck.roots[:0], st)
		for _, v := range ck.roots {
			push(v)
		}
	})
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		o := obj.Decode(heap, a)
		if o.Kind == obj.RawArray || (o.Kind == obj.Record && o.Len > obj.MaxRecordFields) {
			continue
		}
		for i := uint64(0); i < o.Len; i++ {
			if o.IsPtrField(i) {
				push(heap.Load(o.PayloadAddr(i)))
			}
		}
	}
	ck.queue = queue
	return reach
}

// checkOldFreeList verifies the free lists against the heap.
func (ck *checker) checkOldFreeList() {
	if ck.in.OldCollector == core.OldCopy {
		return
	}
	id := ck.in.OldSpaces[0]
	sp := ck.in.Heap.Space(id)
	if sp == nil {
		return
	}
	used := sp.Used()

	var sum uint64
	prevEnd := uint64(1)
	for _, s := range ck.in.OldFreeSpans {
		a := mem.MakeAddr(id, s.Start)
		if s.Size == 0 {
			ck.report(Violation{Pass: "freelist", Gen: "old", Addr: a, Msg: "empty free span"})
			continue
		}
		if s.Start < prevEnd {
			ck.report(Violation{Pass: "freelist", Gen: "old", Addr: a,
				Msg: fmt.Sprintf("span [%d,%d) overlaps or precedes the span ending at %d",
					s.Start, s.Start+s.Size, prevEnd)})
		}
		if s.Start+s.Size > used+1 {
			ck.report(Violation{Pass: "freelist", Gen: "old", Addr: a,
				Msg: fmt.Sprintf("span [%d,%d) extends past the allocation frontier %d",
					s.Start, s.Start+s.Size, used)})
		} else {
			hd := ck.in.Heap.Load(a)
			if obj.HeaderKind(hd) != obj.RawArray || obj.HeaderSite(hd) != 0 ||
				obj.SizeWords(obj.RawArray, obj.HeaderLen(hd)) != s.Size {
				ck.report(Violation{Pass: "freelist", Gen: "old", Addr: a,
					Msg: fmt.Sprintf("span [%d,%d) not backed by an exact filler object",
						s.Start, s.Start+s.Size)})
			}
		}
		sum += s.Size
		prevEnd = s.Start + s.Size
	}
	if sum != ck.in.OldFreeWords {
		ck.report(Violation{Pass: "freelist", Gen: "old",
			Msg: fmt.Sprintf("free-word counter %d, free spans sum to %d", ck.in.OldFreeWords, sum)})
	}

	free := ck.oldFreeStarts()
	var live uint64
	for _, o := range ck.walkSpace(id) {
		off, size := o.Addr.Offset(), o.SizeWords()
		if sz, isFree := free[off]; isFree && sz == size {
			continue
		}
		live += size
	}
	if live+ck.in.OldFreeWords != used {
		ck.report(Violation{Pass: "freelist", Gen: "old",
			Msg: fmt.Sprintf("live %d + free %d words != allocation frontier %d",
				live, ck.in.OldFreeWords, used)})
	}
}
