package core

import (
	"slices"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// LOS is the large-object space: big arrays are not allocated in the
// nursery and promoted, but "reside in a region managed by a mark-sweep
// algorithm" (§2.1). Each large object occupies its own arena space, so
// objects are never moved and freeing returns the arena wholesale; marks
// are kept in a side set and cleared at each sweep.
//
// Membership is a dense table indexed by space id, so the evacuator's
// per-root probe is one bounds check and one load. The heap never reuses
// a space id and keeps a slot for every id it has issued; the table
// grows alongside it.
type LOS struct {
	heap  *mem.Heap
	meter *costmodel.Meter
	stats *GCStats

	objs   []mem.Addr    // space id → its large object; nil if none
	ids    []mem.SpaceID // live large-object space ids, ascending
	marked map[mem.Addr]struct{}
	used   uint64 // total live words
	fresh  []mem.Addr
}

// NewLOS creates an empty large-object space.
func NewLOS(heap *mem.Heap, meter *costmodel.Meter, stats *GCStats) *LOS {
	return &LOS{
		heap:   heap,
		meter:  meter,
		stats:  stats,
		marked: make(map[mem.Addr]struct{}),
	}
}

// Alloc allocates a large object in its own arena.
//
//gc:nocharge the collector Alloc entry points charge the allocation before routing large objects here; charging again would double-count the words
func (l *LOS) Alloc(k obj.Kind, length uint64, site obj.SiteID, mask uint64) mem.Addr {
	size := obj.SizeWords(k, length)
	s := l.heap.AddSpace(size)
	a, ok := obj.Alloc(l.heap, s, k, length, site, mask)
	if !ok {
		panic("core: LOS arena sizing bug")
	}
	id := s.ID()
	if int(id) >= len(l.objs) {
		l.objs = append(l.objs, make([]mem.Addr, int(id)+1-len(l.objs))...)
	}
	l.objs[id] = a
	// Heap.AddSpace issues ids in ascending order, so appending keeps
	// ids sorted.
	l.ids = append(l.ids, id)
	l.used += size
	l.fresh = append(l.fresh, a)
	return a
}

// Contains reports whether space id holds a large object.
func (l *LOS) Contains(id mem.SpaceID) bool {
	return int(id) < len(l.objs) && !l.objs[id].IsNil()
}

// Mark marks the large object at a live, reporting whether this is the
// first mark this cycle (the caller then queues the object for scanning).
func (l *LOS) Mark(a mem.Addr) bool {
	if _, ok := l.marked[a]; ok {
		return false
	}
	l.marked[a] = struct{}{}
	return true
}

// Marked reports whether the large object at a is marked this cycle.
// Meaningful between a major collection's trace and its sweep — the
// mark-compact fixup uses it to visit only live large objects.
func (l *LOS) Marked(a mem.Addr) bool {
	_, ok := l.marked[a]
	return ok
}

// UsedWords returns the total words held by live large objects.
func (l *LOS) UsedWords() uint64 { return l.used }

// Count returns the number of live large objects.
func (l *LOS) Count() int { return len(l.ids) }

// Fresh returns the large objects allocated since the last TakeFresh call.
// A minor collection scans them for nursery references (their initializing
// stores are not write-barriered).
func (l *LOS) Fresh() []mem.Addr { return l.fresh }

// TakeFresh clears the fresh list (after the minor collection scanned it).
func (l *LOS) TakeFresh() {
	l.fresh = l.fresh[:0]
}

// ClearMarks resets all mark bits. A major collection clears marks before
// tracing so that marks set by intervening minor collections (which mark
// for scan-deduplication, not for liveness) cannot keep dead objects
// alive through the sweep.
func (l *LOS) ClearMarks() {
	clear(l.marked)
}

// SpaceIDs returns the ids of all live large-object spaces in ascending
// order (the order large objects were allocated). The slice is a copy the
// caller owns.
func (l *LOS) SpaceIDs() []mem.SpaceID { return slices.Clone(l.ids) }

// ObjectIn returns the address of the large object occupying space id.
func (l *LOS) ObjectIn(id mem.SpaceID) (mem.Addr, bool) {
	if !l.Contains(id) {
		return mem.Nil, false
	}
	return l.objs[id], true
}

// Sweep frees every unmarked large object and clears all marks. Called at
// the end of a major collection, after the trace has marked the live set.
// Spaces are visited in ascending id order so the profiler's OnLOSDead
// callbacks (which accumulate float age sums) fire in a deterministic
// sequence. When the sweep runs inside a phase closed with per-worker
// tallies (the non-moving majors' sweep phase), tally brackets each
// object's examination as one work quantum so the phase reconciles under
// W > 1; the copying collectors pass nil.
func (l *LOS) Sweep(prof Profiler, tally *costmodel.WorkerTally) {
	live := l.ids[:0]
	for _, id := range l.ids {
		a := l.objs[id]
		tally.BeginQuantum()
		l.meter.Charge(costmodel.GCCopy, costmodel.SweepObject)
		if _, ok := l.marked[a]; ok {
			live = append(live, id)
			tally.EndQuantum()
			continue
		}
		size := obj.Decode(l.heap, a).SizeWords()
		l.used -= size
		if prof != nil {
			prof.OnLOSDead(a)
		}
		l.heap.FreeSpace(id)
		l.objs[id] = mem.Nil
		l.stats.LOSSwept++
		tally.EndQuantum()
	}
	l.ids = live
	clear(l.marked)
	// Objects allocated this cycle that were swept are gone; drop any
	// stale fresh entries.
	kept := l.fresh[:0]
	for _, a := range l.fresh {
		if l.Contains(a.Space()) {
			kept = append(kept, a)
		}
	}
	l.fresh = kept
}
