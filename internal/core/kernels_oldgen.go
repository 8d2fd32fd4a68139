package core

import (
	"sort"

	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// This file holds the non-moving old generation's shared bookkeeping: the
// per-word mark/allocation bitmap, the size-segregated free lists, and
// the filler objects that keep the tenured space decodable, shared by the
// mark phase, the sweep (kernels_marksweep.go) and the compaction
// (kernels_markcompact.go). It is a kernels*.go file because free spans
// are tiled with raw-encoded filler headers and direct free-list
// allocation writes object headers into reused storage.

// oldMaxClass is the largest exact-size free-list class in words; spans
// above it go to the sorted big-span list (first-fit).
const oldMaxClass = 32

// freeSpan is one free run of the tenured space: words
// [off, off+size) hold a single raw-array filler object.
type freeSpan struct {
	off  uint64
	size uint64
}

// oldSpace is the non-moving tenured space's side state. The space
// itself (heap space id) is the ordinary bump arena the copying
// collector uses; oldSpace adds the mark/allocation bitmap and the free
// lists that let objects be reclaimed and reallocated in place. The
// tenured space is never replaced: its id is stable for the life of the
// collector (the copying collector's second semispace stays an unused
// zero-capacity reservation).
type oldSpace struct {
	heap *mem.Heap
	id   mem.SpaceID

	// bitmap holds one bit per word of the space: bit off-1 of the flat
	// array corresponds to word offset off (offsets are 1-based). Between
	// collections it is the allocation bitmap — set exactly on words
	// inside allocated objects, clear on filler (free) words. During a
	// non-moving major it is cleared and rebuilt as the mark bitmap; the
	// sweep (or slide) restores the allocation reading automatically.
	bitmap []uint64

	// classes[k] holds the offsets of free spans of exactly k+1 words,
	// popped LIFO. big holds larger spans in ascending offset order,
	// allocated first-fit.
	classes   [oldMaxClass][]uint64
	big       []freeSpan
	freeWords uint64

	// marksFresh is set at the end of a non-moving major collection —
	// the bitmap then equals the just-traced reachable set — and cleared
	// on the first mutator allocation or store, standing the sanitizer's
	// reachability cross-check down (see Generational.noteOldMutation).
	marksFresh bool
}

// newOldSpace creates the side state for the tenured space id.
func newOldSpace(heap *mem.Heap, id mem.SpaceID) *oldSpace {
	return &oldSpace{heap: heap, id: id}
}

// ensureBitmap grows the bitmap to cover word offsets [1, words].
func (os *oldSpace) ensureBitmap(words uint64) {
	need := int((words + 63) / 64)
	for len(os.bitmap) < need {
		os.bitmap = append(os.bitmap, 0)
	}
}

// clearBitmap zeroes every bit and extends coverage to the current
// allocation frontier (a non-moving major starts here, then marking
// rebuilds the live set).
func (os *oldSpace) clearBitmap() {
	clear(os.bitmap)
	os.ensureBitmap(os.heap.Space(os.id).Used())
}

// bitSet reports whether the bit for word offset off is set.
func (os *oldSpace) bitSet(off uint64) bool {
	i := off - 1
	w := i >> 6
	if w >= uint64(len(os.bitmap)) {
		return false
	}
	return os.bitmap[w]>>(i&63)&1 == 1
}

// setRange sets the bits for word offsets [off, off+n).
func (os *oldSpace) setRange(off, n uint64) {
	os.ensureBitmap(off + n - 1)
	for i := off - 1; i < off-1+n; i++ {
		os.bitmap[i>>6] |= 1 << (i & 63)
	}
}

// flipBit inverts one bit (fault injection only).
func (os *oldSpace) flipBit(off uint64) {
	os.ensureBitmap(off)
	i := off - 1
	os.bitmap[i>>6] ^= 1 << (i & 63)
}

// writeFiller tiles the free span [off, off+size) with one decodable
// object: a raw array of size-1 payload words from the reserved site 0.
// Fillers keep the space a gap-free tiling — heap walks (card scans, the
// sanitizer, the sweep itself) decode them like any object and skip them
// as pointer-free.
//
//gc:nobarrier filler headers describe dead storage; they carry no pointer payload, so no remembered-set entry can arise
func (os *oldSpace) writeFiller(off, size uint64) {
	os.heap.Store(mem.MakeAddr(os.id, off), obj.PackHeader(obj.RawArray, size-1, 0))
}

// insertFree adds the span to the matching free list and the free-word
// count. The span must already be tiled by a filler.
func (os *oldSpace) insertFree(off, size uint64) {
	os.freeWords += size
	if size <= oldMaxClass {
		os.classes[size-1] = append(os.classes[size-1], off)
		return
	}
	i := sort.Search(len(os.big), func(i int) bool { return os.big[i].off >= off })
	os.big = append(os.big, freeSpan{})
	copy(os.big[i+1:], os.big[i:])
	os.big[i] = freeSpan{off: off, size: size}
}

// alloc carves size words out of the free lists, returning mem.Nil when
// no span fits (the caller then bump-allocates). The smallest exact
// class that fits is tried first, then the big list first-fit; a larger
// span is split, with the remainder re-tiled as a filler and re-listed.
// The allocated range's bits are set (free-list allocation happens both
// at mutator time — pretenuring — and during collection — promotion —
// and the allocation-bitmap invariant must hold in both). Free-list
// probing charges nothing: the cost model prices allocation by the
// AllocObject/AllocWord/AllocPretenure constants the collector entry
// points already charge, identically across old-generation collectors.
func (os *oldSpace) alloc(size uint64) mem.Addr {
	if size <= oldMaxClass {
		for c := size; c <= oldMaxClass; c++ {
			lst := os.classes[c-1]
			if n := len(lst); n > 0 {
				off := lst[n-1]
				os.classes[c-1] = lst[:n-1]
				os.take(off, c, size)
				return mem.MakeAddr(os.id, off)
			}
		}
	}
	for i := range os.big {
		if os.big[i].size >= size {
			s := os.big[i]
			os.big = append(os.big[:i], os.big[i+1:]...)
			os.take(s.off, s.size, size)
			return mem.MakeAddr(os.id, s.off)
		}
	}
	return mem.Nil
}

// take splits the chosen span (off, have words) into the allocation
// [off, off+size) and a re-listed filler remainder.
func (os *oldSpace) take(off, have, size uint64) {
	os.freeWords -= have
	if rem := have - size; rem > 0 {
		os.writeFiller(off+size, rem)
		os.insertFree(off+size, rem)
	}
	os.setRange(off, size)
}

// allocObject allocates an object into a free-list span, zeroing the
// span's stale words before writing the header (free spans hold old
// filler and dead-object bytes; Space.Alloc's lazy zeroing only covers
// the bump frontier). Returns false when no span fits.
//
//gc:nobarrier header and mask initialization of a just-carved span; the payload is zeroed and no pointer is stored
func (os *oldSpace) allocObject(k obj.Kind, length uint64, site obj.SiteID, mask uint64) (mem.Addr, bool) {
	size := obj.SizeWords(k, length)
	a := os.alloc(size)
	if a.IsNil() {
		return mem.Nil, false
	}
	os.marksFresh = false
	w := os.heap.Space(os.id).Raw()
	off := a.Offset()
	clear(w[off : off+size])
	w[off] = obj.PackHeader(k, length, site)
	if k == obj.Record {
		w[off+1] = mask
	}
	return a, true
}

// emitFreeRun tiles one coalesced free run with a single filler and
// lists it (no-op for an empty run) — the sweep kernels' run sink.
func (os *oldSpace) emitFreeRun(off, n uint64) {
	if n == 0 {
		return
	}
	os.writeFiller(off, n)
	os.insertFree(off, n)
}

// freeSpans returns every free span in ascending offset order — the
// deterministic pre-sweep cursor the sweep kernels and the sanitizer
// walk.
func (os *oldSpace) freeSpans() []freeSpan {
	out := make([]freeSpan, 0, len(os.big))
	for c := uint64(1); c <= oldMaxClass; c++ {
		for _, off := range os.classes[c-1] {
			out = append(out, freeSpan{off: off, size: c})
		}
	}
	out = append(out, os.big...)
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	return out
}

// resetFree empties every free list (the sweep rebuilds them from
// scratch; the compaction slide leaves no holes at all).
func (os *oldSpace) resetFree() {
	for c := range os.classes {
		os.classes[c] = os.classes[c][:0]
	}
	os.big = os.big[:0]
	os.freeWords = 0
}
