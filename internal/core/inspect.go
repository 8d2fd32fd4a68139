package core

import (
	"slices"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/rt"
)

// PretenuredRegion is a read-only view of one tenured region allocated
// into directly since the last minor collection.
type PretenuredRegion struct {
	Space mem.SpaceID
	Start uint64 // first word offset
	End   uint64 // one past the last word offset
}

// OldFreeSpan is a read-only view of one free-list span of the
// non-moving tenured space: words [Start, Start+Size) hold a filler.
type OldFreeSpan struct {
	Start uint64
	Size  uint64
}

// Inspection is a read-only snapshot of a collector's structural state,
// taken between collections. Integrity checkers (internal/sanitize) use it
// to walk the heap independently of the collector's own machinery; nothing
// in an Inspection may be mutated, and slices are defensive copies so
// holding one across a collection cannot corrupt the collector.
type Inspection struct {
	Heap  *mem.Heap
	Meter *costmodel.Meter
	Stats *GCStats

	// Space classification. YoungSpaces are collected at every minor GC
	// (nursery plus, under aging, both aging semispaces); OldSpaces hold
	// tenured data; LOSSpaces each hold one large object. Ids absent from
	// all three sets must hold no live objects.
	YoungSpaces []mem.SpaceID
	OldSpaces   []mem.SpaceID
	LOSSpaces   []mem.SpaceID

	// Generational reports whether old-to-young invariants apply.
	Generational bool
	// Cards is the shared card table of a card-marking generational
	// collector; otherwise the remembered set is every thread's SSB.
	Cards *rt.CardTable
	// Sticky are old-space field addresses known to point into the aging
	// space (empty under immediate promotion).
	Sticky []mem.Addr
	// FreshLOS are large objects allocated since the last collection
	// (their initializing stores bypass the barrier).
	FreshLOS []mem.Addr
	// PretenuredRegions are tenured ranges allocated into directly since
	// the last minor collection; Policy names the sites allowed there.
	PretenuredRegions []PretenuredRegion
	Policy            *PretenurePolicy
	ScanElision       bool

	LargeObjectWords uint64
	MarkerN          int

	// Non-moving old-generation state (OldCollector != OldCopy only).
	// OldBitmap is a defensive copy of the mark/allocation bitmap (bit
	// off-1 ⇔ tenured word offset off); OldFreeSpans are the free-list
	// spans in ascending offset order; OldFreeWords is the collector's
	// free-word counter (checked against the spans); OldMarksFresh reports
	// that no mutator activity has occurred since the last non-moving
	// major, so the bitmap must still equal the reachable set.
	OldCollector  OldCollector
	OldBitmap     []uint64
	OldFreeSpans  []OldFreeSpan
	OldFreeWords  uint64
	OldMarksFresh bool

	// Threads is the collector's simulated thread set (thread 0 wraps the
	// primary stack): every live thread's stack is a root source, and
	// every thread's SSB, dead threads' included, is part of the
	// remembered set.
	Threads *rt.ThreadSet
	// GCWorkers is the configured parallel-copy worker count (0 or 1
	// means the serial collector: no overlap, no worker tallies).
	GCWorkers int
}

// Inspectable is implemented by collectors that can expose their
// structural state for integrity checking.
type Inspectable interface {
	Inspect() Inspection
}

// inspect fills the Inspection fields the collector skeleton owns.
func (b *base) inspect(largeObjectWords uint64, workers int) Inspection {
	return Inspection{
		Heap:             b.heap,
		Meter:            b.meter,
		Stats:            &b.stats,
		LOSSpaces:        b.los.SpaceIDs(),
		FreshLOS:         slices.Clone(b.los.Fresh()),
		LargeObjectWords: largeObjectWords,
		MarkerN:          b.scan.markerN,
		Threads:          b.threads,
		GCWorkers:        workers,
	}
}

// Inspect implements Inspectable.
func (c *Generational) Inspect() Inspection {
	in := c.inspect(c.cfg.LargeObjectWords, c.cfg.Workers)
	in.YoungSpaces = []mem.SpaceID{c.nursery.ID()}
	in.OldSpaces = []mem.SpaceID{c.ten.ID()}
	in.Generational = true
	in.Cards = c.cards
	in.Sticky = slices.Clone(c.sticky)
	in.Policy = mergePolicies(c.cfg.Pretenure, c.advPolicy)
	in.ScanElision = c.cfg.ScanElision
	if c.aging != nil {
		in.YoungSpaces = append(in.YoungSpaces, c.agA, c.agB)
	}
	if c.old != nil {
		in.OldCollector = c.cfg.OldCollector
		in.OldBitmap = slices.Clone(c.old.bitmap)
		in.OldFreeWords = c.old.freeWords
		in.OldMarksFresh = c.old.marksFresh
		for _, s := range c.old.freeSpans() {
			in.OldFreeSpans = append(in.OldFreeSpans, OldFreeSpan{Start: s.off, Size: s.size})
		}
	}
	for _, r := range c.pretenured.regions {
		in.PretenuredRegions = append(in.PretenuredRegions,
			PretenuredRegion{Space: r.space, Start: r.start, End: r.end})
	}
	return in
}

// Inspect implements Inspectable. The semispace collector has a single
// generation: its current allocation space is reported as "old" and the
// generational invariants (remembered sets, pretenured regions) are vacuous.
func (c *Semispace) Inspect() Inspection {
	in := c.inspect(c.cfg.LargeObjectWords, c.cfg.Workers)
	in.OldSpaces = []mem.SpaceID{c.cur.ID()}
	return in
}
