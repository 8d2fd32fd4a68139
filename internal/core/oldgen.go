package core

import "fmt"

// OldCollector selects the algorithm managing the tenured generation.
// The copying collector (the paper's, and the default) evacuates tenured
// survivors between two semispaces at every major collection; the two
// non-moving alternatives keep tenured objects in place under a per-word
// mark bitmap — mark-sweep returns dead runs to size-segregated free
// lists, mark-compact slides the live objects toward the space base in
// allocation order. All three produce byte-identical client results
// (fingerprints, checksums, request latencies in client cycles); they
// differ only in GC-side cost, pause shape, and heap footprint.
type OldCollector uint8

const (
	// OldCopy is the paper's copying old generation (the default).
	OldCopy OldCollector = iota
	// OldMarkSweep manages the tenured space with a mark bitmap and
	// size-segregated free lists: major collections mark in place and
	// sweep dead runs into the free lists; promotion and pretenured
	// allocation are satisfied from the free lists before bumping.
	OldMarkSweep
	// OldMarkCompact marks like OldMarkSweep but then slides live tenured
	// objects toward the space base (preserving allocation order),
	// leaving a contiguous heap and a pure bump allocator.
	OldMarkCompact
)

// String returns the collector's configuration name.
func (oc OldCollector) String() string {
	switch oc {
	case OldMarkSweep:
		return "marksweep"
	case OldMarkCompact:
		return "markcompact"
	case OldCopy:
		return "copy"
	}
	return fmt.Sprintf("OldCollector(%d)", uint8(oc))
}

// ParseOldCollector resolves a configuration name back to its value.
func ParseOldCollector(s string) (OldCollector, bool) {
	switch s {
	case "", "copy":
		return OldCopy, true
	case "marksweep":
		return OldMarkSweep, true
	case "markcompact":
		return OldMarkCompact, true
	}
	return OldCopy, false
}

// tenLive returns the tenured generation's occupied words: the allocation
// frontier minus the free-list words inside it. Identical to ten.Used()
// under the copying old generation, which keeps no free lists — so every
// threshold derived from it (major triggers, resizing, MaxLiveBytes) is
// unchanged for the default configuration.
func (c *Generational) tenLive() uint64 {
	if c.old == nil {
		return c.ten.Used()
	}
	return c.ten.Used() - c.old.freeWords
}

// noteOldMutation clears the marks-fresh flag: once the mutator has
// allocated into or stored over the heap — or any collection has begun
// (see Collect: minors promote without re-tracing the old generation,
// and stack-root writes are invisible to the collector, so by collection
// time reachability may have shrunk below the bitmap) — the mark bitmap
// no longer coincides with the reachable set, and the sanitizer's
// mark-subset-of-reachable check stands down until the next non-moving
// major rebuilds the bitmap.
func (c *Generational) noteOldMutation() {
	if c.old != nil {
		c.old.marksFresh = false
	}
}

// FlipOldMarkBit flips the mark/allocation bit of the tenured word at
// offset off. Fault-injection hook for the sanitizer's broken-collector
// tests — it corrupts the bitmap the way a lost or spurious mark would,
// without touching the heap or the free lists. No production caller.
func (c *Generational) FlipOldMarkBit(off uint64) {
	if c.old == nil {
		panic("core: FlipOldMarkBit on a copying old generation")
	}
	c.old.flipBit(off)
}

// SkewOldFreeWords adds delta to the old generation's free-word counter
// without touching the free lists, the way a dropped span-accounting
// update would. Fault-injection hook for the sanitizer's broken-collector
// tests; no production caller.
func (c *Generational) SkewOldFreeWords(delta uint64) {
	if c.old == nil {
		panic("core: SkewOldFreeWords on a copying old generation")
	}
	c.old.freeWords += delta
}
