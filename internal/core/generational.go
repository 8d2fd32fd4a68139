package core

import (
	"fmt"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
	"tilgc/internal/trace"
)

// Generational is the two-generation copying collector: new objects are
// bump-allocated in the nursery; every minor collection promotes all
// survivors to the tenured generation immediately; the tenured generation
// is itself collected by copying between two spaces when it exceeds its
// budget-derived threshold. Old-to-young pointers created by mutation are
// tracked by a sequential store buffer (or optionally a card table).
type Generational struct {
	base

	cards *rt.CardTable // nil under the SSB barrier: each thread has its own SSB

	nursery *mem.Space
	idA     mem.SpaceID
	idB     mem.SpaceID
	ten     *mem.Space // current tenured allocation space
	tenCap  uint64     // logical tenured threshold T (triggers major GC)

	// old is the non-moving tenured side state (mark/allocation bitmap and
	// free lists); nil under the copying old generation. When set, the
	// tenured space is permanently idA — it is never flipped or replaced.
	old *oldSpace
	// compactCapture and rootFix support the mark-compact root fixup:
	// during a compacting major's root scan every location left holding a
	// tenured pointer is captured, then revisited after slide destinations
	// are known (the slide is the only time tenured objects move without
	// forwarding headers).
	compactCapture bool
	rootFix        []rootFixEntry

	// Aging spaces (only when cfg.AgingMinors > 0): survivors shuttle
	// between the pair until old enough to tenure.
	agA, agB mem.SpaceID
	aging    *mem.Space // current aging from-space (nil when disabled)

	pretenured regionSet
	// sticky remembers old-space field addresses still pointing into the
	// aging space; re-examined at every minor until the targets tenure.
	// Empty when AgingMinors == 0 (immediate promotion needs none).
	// stickySpare is the drained previous-cycle buffer, kept so the two
	// can ping-pong without reallocating every minor collection.
	sticky      []mem.Addr
	stickySpare []mem.Addr
	inGC        bool
	// pendingMajor is set when DeferMajor postpones an over-threshold
	// major; the next Collect call of either flavor runs it.
	pendingMajor bool

	// pretenureOn caches Pretenure.Len() > 0 so the allocation fast path
	// skips the per-site policy probe entirely when no site is selected.
	pretenureOn bool

	// advPolicy accumulates every site the advisor has ever sent to the
	// tenured generation. Demotion does not remove entries: a region
	// allocated before the demotion legitimately holds the site's objects
	// until the next minor scan clears it, so the integrity checker's
	// policy view (Inspect) must keep naming it.
	advPolicy *PretenurePolicy

	// Pooled per-collection scratch, like the skeleton's evacuator: the
	// sorted dirty-card ids and the expanded card field addresses. Reused
	// so steady-state minor collections allocate nothing on the Go heap.
	cardBuf []uint64
	cardFAs []mem.Addr
}

// cardShift is log2 words per card under CardTable: 128-word (1KB)
// cards.
const cardShift = 7

// NewGenerational creates a generational collector over its own heap.
//
//gc:nocharge construction builds the heap before the simulated clock starts; the paper's cost model charges mutator and GC work, not arena setup
func NewGenerational(stack *rt.Stack, meter *costmodel.Meter, prof Profiler, cfg Config) *Generational {
	cfg.setDefaults()
	c := &Generational{}
	c.init(stack, meter, prof, cfg)
	if cfg.CardTable {
		c.cards = rt.NewCardTable(meter, cardShift)
	} else {
		// Every thread, thread 0 and each later spawn, gets a private
		// store buffer; every buffer is drained at each collection.
		equip := func(t *rt.Thread) { t.SetSSB(rt.NewSSB(meter)) }
		equip(c.threads.Thread(0))
		c.threads.OnSpawn(equip)
	}
	c.pretenureOn = cfg.Pretenure.Len() > 0
	if cfg.Advisor != nil {
		c.advPolicy = NewPretenurePolicy(nil)
	}
	c.nursery = c.heap.AddSpace(cfg.NurseryWords)
	c.tenCap = c.initialTenCap()
	// The tenured arena starts small and grows on demand (GrowSpace
	// preserves offsets, so addresses stay valid); the logical threshold
	// tenCap is what triggers major collections.
	initial := 4*cfg.NurseryWords + 1024
	if initial > c.tenCap+cfg.NurseryWords+1024 {
		initial = c.tenCap + cfg.NurseryWords + 1024
	}
	a := c.heap.AddSpace(initial)
	b := c.heap.AddSpace(0)
	c.idA, c.idB = a.ID(), b.ID()
	c.ten = a
	if cfg.OldCollector != OldCopy {
		// Non-moving old generation: idA is the permanent tenured space
		// (idB stays a zero-capacity reservation, never materialized).
		c.old = newOldSpace(c.heap, c.idA)
	}
	if cfg.AgingMinors > 0 {
		ag := c.heap.AddSpace(cfg.NurseryWords + 64)
		agb := c.heap.AddSpace(0)
		c.agA, c.agB = ag.ID(), agb.ID()
		c.aging = ag
	}
	return c
}

// scanRoots scans every live thread's stack in thread-id order. Dead
// threads' stacks are skipped: a joined thread's frames no longer keep
// anything alive.
func (c *Generational) scanRoots(ev *evacuator, minor bool) {
	for _, t := range c.threads.Threads() {
		if t.Dead() {
			continue
		}
		st := t.Stack()
		c.threadScanner(t).Scan(minor, func(loc RootLoc) { c.forwardRootOn(ev, st, loc) })
	}
}

// isYoung reports whether space id is collected at every minor GC (the
// nursery and, when aging is enabled, both aging semispaces — their ids
// are stable across cycles).
func (c *Generational) isYoung(id mem.SpaceID) bool {
	if id == c.nursery.ID() {
		return true
	}
	return c.aging != nil && (id == c.agA || id == c.agB)
}

// initialTenCap derives the tenured threshold from the budget: nursery +
// two tenured spaces must fit (the to-space is materialized only during a
// major collection, but the paper's accounting reserves it).
func (c *Generational) initialTenCap() uint64 {
	if c.cfg.BudgetWords <= c.cfg.NurseryWords+1024 {
		return 1024
	}
	avail := c.cfg.BudgetWords - c.cfg.NurseryWords
	if c.cfg.OldCollector != OldCopy {
		// The non-moving collectors need no copy reserve: the whole tenured
		// share of the budget is usable live space — their footprint
		// advantage over the copying old generation.
		return avail
	}
	return avail / 2
}

// Name implements Collector.
func (c *Generational) Name() string {
	n := "generational"
	if c.cfg.OldCollector != OldCopy {
		n += "+" + c.cfg.OldCollector.String()
	}
	if c.cfg.MarkerN > 0 {
		n += "+markers"
	}
	if c.cfg.Pretenure.Len() > 0 {
		n += "+pretenure"
		if c.cfg.ScanElision {
			n += "+elide"
		}
	}
	if c.cfg.Advisor != nil {
		n += "+adapt"
	}
	if c.cfg.CardTable {
		n += "+cards"
	}
	if c.cfg.AgingMinors > 0 {
		n += fmt.Sprintf("+aging%d", c.cfg.AgingMinors)
	}
	if c.cfg.GCWorkers > 1 {
		n += fmt.Sprintf("+gcw%d", c.cfg.GCWorkers)
	}
	return n
}

// PointerUpdates returns the lifetime count of barriered pointer stores
// across every thread: the shared card table's count, or the per-thread
// SSB counts summed.
func (c *Generational) PointerUpdates() uint64 {
	if c.cards != nil {
		return c.cards.TotalRecorded()
	}
	var n uint64
	for _, t := range c.threads.Threads() {
		n += t.SSB().TotalRecorded()
	}
	return n
}

// Alloc implements Collector. The common case — a small object from an
// unpretenured site landing in a nursery with room — runs straight through
// the bump allocation: records can never be large, so they skip the LOS
// threshold compare, and the per-site pretenure probe only happens when
// the policy selects at least one site.
func (c *Generational) Alloc(k obj.Kind, length uint64, site obj.SiteID, mask uint64) mem.Addr {
	size := obj.SizeWords(k, length)
	c.chargeAlloc(k, size)
	c.noteOldMutation()

	// Large arrays bypass the nursery into the mark-sweep space (§2.1).
	if k != obj.Record && length >= c.cfg.LargeObjectWords {
		return c.allocLarge(k, length, site, mask, size)
	}

	// Profile-selected sites allocate directly into the old generation.
	if c.pretenureOn {
		if _, ok := c.cfg.Pretenure.Lookup(site); ok {
			return c.allocPretenured(k, length, site, mask, size)
		}
	}
	// The online advisor (§9) decides per allocation; its answers change
	// at collection boundaries as sites are promoted and demoted.
	if c.cfg.Advisor != nil && c.cfg.Advisor.ShouldPretenure(site) {
		c.advPolicy.set(site, PretenureDecision{})
		return c.allocPretenured(k, length, site, mask, size)
	}

	a, ok := obj.Alloc(c.heap, c.nursery, k, length, site, mask)
	if !ok {
		a = c.allocNurserySlow(k, length, site, mask, size)
	}
	c.noteAlloc(a, site, k, size, false)
	return a
}

// allocLarge is the LOS allocation path, collecting first when the
// large-object share of the budget is exhausted.
func (c *Generational) allocLarge(k obj.Kind, length uint64, site obj.SiteID, mask uint64, size uint64) mem.Addr {
	if c.los.UsedWords()+size > c.losLimit() {
		c.Collect(true)
	}
	a := c.los.Alloc(k, length, site, mask)
	c.noteAlloc(a, site, k, size, false)
	return a
}

// allocNurserySlow collects the nursery and retries the bump allocation.
func (c *Generational) allocNurserySlow(k obj.Kind, length uint64, site obj.SiteID, mask uint64, size uint64) mem.Addr {
	c.Collect(false)
	a, ok := obj.Alloc(c.heap, c.nursery, k, length, site, mask)
	if !ok {
		panic(fmt.Sprintf("core: object of %d words exceeds nursery (%d words)",
			size, c.cfg.NurseryWords))
	}
	return a
}

// ensureTenured grows the tenured arena's physical capacity so at least
// extra more words fit, bounded by the logical threshold plus promotion
// slack. Growth preserves offsets; no object moves.
func (c *Generational) ensureTenured(extra uint64) {
	if c.ten.Free() >= extra {
		return
	}
	newCap := c.ten.Capacity() * 2
	if newCap < c.ten.Used()+extra {
		newCap = c.ten.Used() + extra
	}
	limit := c.tenCap + c.cfg.NurseryWords + 1024
	if newCap > limit {
		newCap = limit
	}
	if newCap < c.ten.Used()+extra {
		newCap = c.ten.Used() + extra // emergency: logical cap exceeded
	}
	c.ten = c.heap.GrowSpace(c.ten.ID(), newCap)
}

// allocPretenured performs the longer allocation sequence into the
// tenured generation and remembers the region for the next minor scan.
func (c *Generational) allocPretenured(k obj.Kind, length uint64, site obj.SiteID, mask uint64, size uint64) mem.Addr {
	c.meter.Charge(costmodel.Client, costmodel.AllocPretenure)
	// The trigger compares occupancy, not the raw frontier: under the
	// non-moving collectors ten.Used() includes free-list words that are
	// reusable space, not pressure (tenLive == Used under copying).
	if c.tenLive()+size > c.tenCap {
		c.Collect(true)
	}
	if c.old != nil {
		if a, ok := c.old.allocObject(k, length, site, mask); ok {
			c.pretenured.add(a.Space(), a.Offset(), size)
			c.stats.Pretenured++
			c.noteAlloc(a, site, k, size, true)
			return a
		}
	}
	c.ensureTenured(size)
	a, ok := obj.Alloc(c.heap, c.ten, k, length, site, mask)
	if !ok {
		panic("core: tenured space physical overflow on pretenured allocation")
	}
	if c.old != nil {
		// Bump-allocated into the non-moving space: set the allocation bits
		// the free-list path sets in allocObject.
		c.old.setRange(a.Offset(), size)
		c.old.marksFresh = false
	}
	c.pretenured.add(a.Space(), a.Offset(), size)
	c.stats.Pretenured++
	c.noteAlloc(a, site, k, size, true)
	return a
}

// StoreField implements Collector: pointer stores pass through the write
// barrier, which records the mutated field's address.
func (c *Generational) StoreField(a mem.Addr, i uint64, v uint64, isPtr bool) {
	c.meter.Charge(costmodel.Client, costmodel.MutatorStore)
	c.noteOldMutation()
	fa := obj.FieldAddr(c.heap, a, i)
	c.heap.Store(fa, v)
	if isPtr {
		// Card marks go to the shared table; SSB entries to the running
		// thread's buffer, drained with every other thread's at the next
		// collection.
		if c.cards != nil {
			c.cards.Record(fa)
		} else {
			c.threads.Current().SSB().Record(fa)
		}
	}
}

// Collect implements Collector.
func (c *Generational) Collect(major bool) {
	if c.inGC {
		panic("core: reentrant collection")
	}
	// Any collection invalidates mark freshness up front: a minor promotes
	// into the old generation without re-tracing it, and the mutator may
	// have dropped stack roots since the last major — a write the
	// collector never sees — so the bitmap can be a strict superset of
	// what this collection finds reachable. A non-moving major re-traces
	// and re-establishes freshness at its end.
	c.noteOldMutation()
	if major || c.pendingMajor {
		c.pendingMajor = false
		c.majorGC()
	} else {
		c.minorGC()
	}
}

// minorGC promotes every live nursery object into the tenured generation.
func (c *Generational) minorGC() {
	c.inGC = true
	defer func() { c.inGC = false }()
	span := c.beginGC(false)
	// The deferred close covers an escalated major too: its phases are
	// emitted inside this still-open collection span.
	defer func() {
		c.sampleHeap()
		c.endGC(&span)
	}()
	c.ensureTenured(c.nursery.Used() + c.agingUsed() + 64)

	var condemned [2]mem.SpaceID
	condemned[0] = c.nursery.ID()
	ncond := 1
	var agingTo *mem.Space
	if c.aging != nil {
		condemned[1] = c.aging.ID()
		ncond = 2
		toID := c.agA
		if c.aging.ID() == toID {
			toID = c.agB
		}
		agingTo = c.heap.ReplaceSpace(toID, c.nursery.Used()+c.aging.Used()+64)
	}
	ev := c.evacuation(condemned[:ncond], c.ten)
	ev.tenuredID = c.ten.ID()
	// Non-moving old generation: promotions reuse free-list spans and set
	// allocation bits (oldMark stays false — minors leave tenured pointers
	// untouched, exactly like the copying collector).
	ev.old = c.old
	var oldSticky []mem.Addr
	if agingTo != nil {
		ev.addDest(agingTo)
		oldSticky = c.sticky
		c.sticky = c.stickySpare[:0]
		ev.isYoung = c.isYoung
		ev.sticky = &c.sticky
		threshold := uint8(min(c.cfg.AgingMinors, 250))
		ev.route = func(o obj.Object) *mem.Space {
			if obj.Age(c.heap, o.Addr) >= threshold {
				return c.ten
			}
			return agingTo
		}
		ev.postCopy = func(dst mem.Addr, o obj.Object) {
			if dst.Space() == agingTo.ID() {
				obj.SetAge(c.heap, dst, obj.Age(c.heap, dst)+1)
			}
		}
	}

	c.endParallelPhase(trace.PhaseSetup)

	// Roots: the (possibly cached) stack scan, the remembered set from
	// the write barrier, the sticky old-to-aging set, the pretenured
	// regions, and fresh large objects. With workers, the stack scan
	// shards per frame (the scanner brackets each frame as one quantum):
	// the register-status chain a frame inherits is the per-stacklet
	// entry state §5's markers already cache, so frames scan
	// independently once it is known.
	c.tr.BeginPhase(trace.PhaseRoots)
	c.scanRoots(ev, true)
	c.endParallelPhase(trace.PhaseRoots)
	c.tr.BeginPhase(trace.PhaseRemSet)
	for _, fa := range oldSticky {
		c.tally.BeginQuantum()
		c.meter.Charge(costmodel.GCCopy, costmodel.SSBEntry)
		c.forwardIfYoung(ev, fa, c.nursery.ID())
		c.tally.EndQuantum()
	}
	c.processBarrier(ev)
	c.endParallelPhase(trace.PhaseRemSet)
	c.tr.BeginPhase(trace.PhasePretenured)
	c.scanPretenuredRegions(ev)
	for _, a := range c.los.Fresh() {
		c.tally.BeginQuantum()
		c.scanForYoung(ev, a)
		c.tally.EndQuantum()
	}
	c.los.TakeFresh()
	c.endParallelPhase(trace.PhasePretenured)

	c.tr.BeginPhase(trace.PhaseCopy)
	ev.drain()
	c.endParallelPhase(trace.PhaseCopy)
	ev.condemnedDead()
	c.nursery.Reset()
	if agingTo != nil {
		c.heap.ReplaceSpace(c.aging.ID(), 0)
		c.aging = agingTo
		// The drained buffer becomes next cycle's spare, so the two sticky
		// buffers ping-pong without reallocating.
		c.stickySpare = oldSticky[:0]
	}

	if c.tenLive() > c.tenCap {
		if c.cfg.DeferMajor {
			// Bounded-pause mode: resume the mutator now; the major runs
			// as its own pause at the next trigger (a major collects the
			// nursery too, so the triggering allocation still succeeds).
			c.pendingMajor = true
		} else {
			c.majorGC()
		}
	}
}

// agingUsed returns the words held by the aging space (0 when disabled).
func (c *Generational) agingUsed() uint64 {
	if c.aging == nil {
		return 0
	}
	return c.aging.Used()
}

// processBarrier drains the write barrier, forwarding any nursery pointer
// stored into an older object. Every entry is examined (the SSB records
// duplicates — the Peg overhead); the card table examines dirty cards'
// words instead.
func (c *Generational) processBarrier(ev *evacuator) {
	nid := c.nursery.ID()
	if c.cards != nil {
		// The field-address list is materialized in full before any
		// forwarding: promotions move the tenured frontier mid-drain, and
		// interleaving the layout walk with copies would let a card
		// spanning the frontier pick up newly promoted fields.
		c.collectCardFieldAddrs()
		for _, fa := range c.cardFAs {
			c.tally.BeginQuantum()
			c.forwardIfYoung(ev, fa, nid)
			c.tally.EndQuantum()
		}
		c.cards.Drain()
		return
	}
	cb := func(fa mem.Addr) {
		c.tally.BeginQuantum()
		c.meter.Charge(costmodel.GCCopy, costmodel.SSBEntry)
		c.stats.SSBProcessed++
		if !c.isYoung(fa.Space()) {
			// A young-space update needs no forwarding: the object's copy
			// (if live) is fully scanned during evacuation anyway.
			c.forwardIfYoung(ev, fa, nid)
		}
		c.tally.EndQuantum()
	}
	// Every thread's buffer drains in thread-id order, dead threads'
	// included: their stores were real pointer updates.
	for _, t := range c.threads.Threads() {
		t.SSB().DrainTo(cb)
	}
}

// dropBarrier discards all remembered-set state — every thread's — after
// a major collection: no old-to-young pointers survive a full copy.
func (c *Generational) dropBarrier() {
	if c.cards != nil {
		c.cards.Drain()
		return
	}
	for _, t := range c.threads.Threads() {
		t.SSB().Drain()
	}
}

// collectCardFieldAddrs expands dirty cards to the pointer-field
// addresses they cover, filling the pooled cardBuf/cardFAs buffers (no
// per-collection allocation at steady state). Expansion is
// object-precise: each card is resolved against the object layout of
// its space, so only genuine pointer fields are materialized. The
// previous word-blind expansion treated every allocated word under a
// dirty card as a candidate pointer; a raw field whose bits happened to
// spell a young-space address would be "forwarded" — decoding garbage
// as an object header (crash) or silently rewriting client data (found
// by differential fuzzing, seeds 3892 and 29187; pinned in
// internal/fuzz/corpus). The cost model is unchanged: ScanPtrTest per
// allocated word under a dirty card, the price of examining the card.
func (c *Generational) collectCardFieldAddrs() {
	c.cardBuf = c.cards.AppendCards(c.cardBuf[:0])
	c.cardFAs = c.cardFAs[:0]
	for i, j := 0, 0; i < len(c.cardBuf); i = j {
		first, _ := c.cards.CardBounds(c.cardBuf[i])
		spid := first.Space()
		for j = i + 1; j < len(c.cardBuf); j++ {
			if s, _ := c.cards.CardBounds(c.cardBuf[j]); s.Space() != spid {
				break
			}
		}
		c.cardFAs = c.appendSpaceCardFAs(c.cardFAs, spid, c.cardBuf[i:j])
	}
}

// appendSpaceCardFAs resolves one space's dirty cards (ascending) into
// the pointer-field addresses they cover, appending to fas. Young
// spaces are skipped — their survivors are fully scanned during
// evacuation — as are spaces freed since the recording store (dead
// large objects).
func (c *Generational) appendSpaceCardFAs(fas []mem.Addr, spid mem.SpaceID, cards []uint64) []mem.Addr {
	if c.isYoung(spid) {
		return fas
	}
	sp := c.heap.Space(spid)
	if sp == nil {
		return fas
	}
	top := sp.Used() + 1 // offsets [1, top) are allocated
	for _, id := range cards {
		start, n := c.cards.CardBounds(id)
		lo, hi := max(start.Offset(), 1), start.Offset()+n
		if hi > top {
			hi = top
		}
		if hi > lo {
			// One quantum per dirty card: card examination parallelizes
			// card-by-card across the simulated workers.
			c.tally.BeginQuantum()
			c.meter.ChargeN(costmodel.GCCopy, costmodel.ScanPtrTest, hi-lo)
			c.tally.EndQuantum()
		}
	}
	if la, ok := c.los.ObjectIn(spid); ok {
		return c.appendObjectCardFAs(fas, obj.Decode(c.heap, la), cards)
	}
	// Bump-allocated spaces hold contiguous objects in [1, Used()]; walk
	// them in address order, advancing the card cursor alongside so the
	// walk stops once the dirty window is exhausted.
	k := 0
	for off := uint64(1); off < top && k < len(cards); {
		o := obj.Decode(c.heap, mem.MakeAddr(spid, off))
		end := off + o.SizeWords()
		for k < len(cards) {
			s, n := c.cards.CardBounds(cards[k])
			if s.Offset()+n <= off {
				k++ // card wholly before this object
				continue
			}
			break
		}
		if k < len(cards) {
			if s, _ := c.cards.CardBounds(cards[k]); s.Offset() < end {
				fas = c.appendObjectCardFAs(fas, o, cards[k:])
			}
		}
		off = end
	}
	return fas
}

// appendObjectCardFAs appends o's pointer-field addresses that fall
// inside the dirty cards (ascending), stopping at the first card past
// the object's payload.
func (c *Generational) appendObjectCardFAs(fas []mem.Addr, o obj.Object, cards []uint64) []mem.Addr {
	if o.Kind == obj.RawArray || o.Len == 0 {
		return fas
	}
	p0 := o.PayloadAddr(0).Offset()
	p1 := p0 + o.Len
	for _, id := range cards {
		start, n := c.cards.CardBounds(id)
		lo, hi := start.Offset(), start.Offset()+n
		if lo >= p1 {
			break
		}
		if hi <= p0 {
			continue
		}
		lo, hi = max(lo, p0), min(hi, p1)
		for w := lo; w < hi; w++ {
			if o.IsPtrField(w - p0) {
				fas = append(fas, o.PayloadAddr(w-p0))
			}
		}
	}
	return fas
}

// forwardIfYoung forwards the value at field address fa when it points
// into the nursery.
//
//gc:nobarrier collector-internal forwarding during a stop-the-world minor GC: the slot it rewrites is exactly the remembered-set entry being consumed
func (c *Generational) forwardIfYoung(ev *evacuator, fa mem.Addr, nursery mem.SpaceID) {
	sp := c.heap.Space(fa.Space())
	if sp == nil || !sp.Contains(fa) {
		return // stale entry into space that has since been freed/reset
	}
	v := c.heap.Load(fa)
	if !c.isYoung(mem.Addr(v).Space()) {
		return
	}
	nv := ev.forward(v)
	if nv != v {
		c.heap.Store(fa, nv)
	}
	// Without immediate promotion the target may still be young after
	// evacuation; keep the field in the sticky set.
	if c.aging != nil && nv != 0 && c.isYoung(mem.Addr(nv).Space()) {
		c.sticky = append(c.sticky, fa)
	}
}

// scanPretenuredRegions scans the tenured regions allocated into directly
// since the last collection, forwarding nursery references out of them.
// This is a scan, not a copy — the reason pretenuring's GC-time win is
// smaller than its copy reduction (§6). With ScanElision, objects whose
// site is flagged OnlyOldRefs are skipped (§7.2).
func (c *Generational) scanPretenuredRegions(ev *evacuator) {
	for _, r := range c.pretenured.regions {
		off := r.start
		for off < r.end {
			a := mem.MakeAddr(r.space, off)
			o := obj.Decode(c.heap, a)
			c.tally.BeginQuantum()
			if d, ok := c.cfg.Pretenure.Lookup(o.Site); ok && d.OnlyOldRefs && c.cfg.ScanElision {
				c.meter.Charge(costmodel.GCCopy, costmodel.ScanPtrTest)
			} else {
				c.scanForYoungObject(ev, o)
			}
			c.tally.EndQuantum()
			off += o.SizeWords()
		}
	}
	c.pretenured.clear()
}

// scanForYoung scans the object at a for nursery references.
func (c *Generational) scanForYoung(ev *evacuator, a mem.Addr) {
	c.scanForYoungObject(ev, obj.Decode(c.heap, a))
}

//gc:nobarrier minor-GC scan kernel: pointer rewrites happen while the world is stopped, on objects the scan itself is enumerating
func (c *Generational) scanForYoungObject(ev *evacuator, o obj.Object) {
	c.meter.ChargeN(costmodel.GCCopy, costmodel.ScanWord, o.SizeWords())
	c.stats.BytesScanned += o.SizeWords() * mem.WordSize
	if o.Kind == obj.RawArray {
		return
	}
	for i := uint64(0); i < o.Len; i++ {
		if !o.IsPtrField(i) {
			continue
		}
		fa := o.PayloadAddr(i)
		v := c.heap.Load(fa)
		nv := ev.forward(v)
		if nv != v {
			c.heap.Store(fa, nv)
		}
		if c.aging != nil && nv != 0 && c.isYoung(mem.Addr(nv).Space()) {
			c.sticky = append(c.sticky, fa)
		}
	}
}

// majorGC collects both generations: nursery and tenured survivors are
// evacuated into a fresh tenured space, the large-object space is swept,
// and the tenured threshold is re-derived from the observed liveness.
func (c *Generational) majorGC() {
	wasInGC := c.inGC
	c.inGC = true
	defer func() { c.inGC = wasInGC }()
	if !wasInGC {
		span := c.beginGC(true)
		defer func() {
			c.sampleHeap()
			c.endGC(&span)
		}()
		c.endParallelPhase(trace.PhaseSetup)
	}
	c.stats.NumMajor++
	switch c.cfg.OldCollector {
	case OldMarkSweep:
		c.majorMarkSweep()
	case OldMarkCompact:
		c.majorMarkCompact()
	default:
		c.majorCopy()
	}
}

// targetTenuredLiveness drives tenured-generation resizing after a major
// collection, copying or not; the paper uses 0.3.
const targetTenuredLiveness = 0.3

// majorCopy is the paper's copying major collection: nursery and tenured
// survivors are evacuated into a fresh tenured semispace.
func (c *Generational) majorCopy() {
	fromID, toID := c.idA, c.idB
	if c.ten.ID() != fromID {
		fromID, toID = toID, fromID
	}
	c.los.ClearMarks()
	to := c.heap.ReplaceSpace(toID, c.ten.Used()+c.nursery.Used()+c.agingUsed())
	var condemned [3]mem.SpaceID
	condemned[0], condemned[1] = c.nursery.ID(), fromID
	ncond := 2
	if c.aging != nil {
		condemned[2] = c.aging.ID()
		ncond = 3
	}
	ev := c.evacuation(condemned[:ncond], to)
	ev.tenuredID = toID
	ev.oldFromID = fromID

	c.tr.BeginPhase(trace.PhaseRoots)
	c.scanRoots(ev, false)
	c.endParallelPhase(trace.PhaseRoots)
	c.tr.BeginPhase(trace.PhaseCopy)
	ev.drain()
	c.endParallelPhase(trace.PhaseCopy)
	c.tr.BeginPhase(trace.PhaseSweep)
	c.los.Sweep(c.prof, nil)
	c.tr.EndPhase(trace.PhaseSweep)

	live := to.Used()
	// Tenured resize within the budget share, less a copy reserve.
	maxCap := c.initialTenCap()
	if losWords := c.los.UsedWords(); 2*losWords < c.cfg.BudgetWords-c.cfg.NurseryWords {
		maxCap = (c.cfg.BudgetWords - c.cfg.NurseryWords - losWords) / 2
	}
	c.finishMajor(live, maxCap)
	// Physical capacity grows lazily toward the logical threshold; just
	// leave room for the next nursery promotion.
	need := live + c.cfg.NurseryWords + 1024
	if c.heap.Space(toID).Capacity() < need {
		c.ten = c.heap.GrowSpace(toID, need)
	} else {
		c.ten = c.heap.Space(toID)
	}
	c.heap.ReplaceSpace(fromID, 0)
	c.updateMaxLive()
}

// beginNonmovingMajor is the shared front half of the two non-moving
// majors: clear the LOS marks and the tenured bitmap (the trace rebuilds
// it as the live set), make room for the worst-case promotion, and rearm
// the evacuator in marking mode — nursery (and aging) spaces are
// condemned and evacuated into the tenured space as usual, but tenured
// pointers mark in place instead of copying.
func (c *Generational) beginNonmovingMajor() *evacuator {
	c.los.ClearMarks()
	c.old.clearBitmap()
	c.ensureTenured(c.nursery.Used() + c.agingUsed() + 64)
	var condemned [2]mem.SpaceID
	condemned[0] = c.nursery.ID()
	ncond := 1
	if c.aging != nil {
		condemned[1] = c.aging.ID()
		ncond = 2
	}
	ev := c.evacuation(condemned[:ncond], c.ten)
	ev.tenuredID = c.ten.ID()
	ev.old = c.old
	ev.oldMark = true
	return ev
}

// majorMarkSweep is the bitmap mark-sweep major: trace in place, then
// sweep dead tenured runs into the free lists. No tenured object moves.
func (c *Generational) majorMarkSweep() {
	ev := c.beginNonmovingMajor()

	c.tr.BeginPhase(trace.PhaseRoots)
	c.scanRoots(ev, false)
	c.endParallelPhase(trace.PhaseRoots)
	c.tr.BeginPhase(trace.PhaseMark)
	ev.drain()
	c.endParallelPhase(trace.PhaseMark)
	c.tr.BeginPhase(trace.PhaseSweep)
	c.sweepOld()
	c.los.Sweep(c.prof, c.tally)
	c.endParallelPhase(trace.PhaseSweep)

	c.finishNonmovingMajor()
}

// majorMarkCompact is the sliding mark-compact major: trace in place,
// slide the live tenured objects toward the space base (preserving
// allocation order), then sweep the LOS. Stack roots into the tenured
// space are captured during the root scan and rewritten by the
// compaction's fixup pass.
func (c *Generational) majorMarkCompact() {
	ev := c.beginNonmovingMajor()

	c.compactCapture = true
	c.rootFix = c.rootFix[:0]
	c.tr.BeginPhase(trace.PhaseRoots)
	c.scanRoots(ev, false)
	c.endParallelPhase(trace.PhaseRoots)
	c.compactCapture = false
	c.tr.BeginPhase(trace.PhaseMark)
	ev.drain()
	c.endParallelPhase(trace.PhaseMark)
	c.tr.BeginPhase(trace.PhaseCompact)
	c.compactOld()
	c.endParallelPhase(trace.PhaseCompact)
	c.tr.BeginPhase(trace.PhaseSweep)
	c.los.Sweep(c.prof, c.tally)
	c.endParallelPhase(trace.PhaseSweep)

	c.finishNonmovingMajor()
}

// finishNonmovingMajor is the back half of the non-moving majors: the
// shared epilogue with the tenured resize driven by occupancy rather than
// a new semispace's frontier. Without a copy reserve the whole non-LOS
// remainder of the budget is usable, and there is no from-space to
// release.
func (c *Generational) finishNonmovingMajor() {
	maxCap := c.initialTenCap()
	if c.cfg.BudgetWords > c.cfg.NurseryWords {
		if avail := c.cfg.BudgetWords - c.cfg.NurseryWords; c.los.UsedWords() < avail {
			maxCap = avail - c.los.UsedWords()
		}
	}
	c.finishMajor(c.tenLive(), maxCap)
	// The bitmap now coincides with the traced reachable set; any mutator
	// allocation or store invalidates that reading (noteOldMutation).
	c.old.marksFresh = true
	c.updateMaxLive()
}

// finishMajor is the epilogue every major collection shares: the LOS
// fresh list and the condemned spaces are closed, the young spaces reset,
// and the sticky set, the barrier's remembered set and the pretenured
// regions dropped — no old-to-young pointers survive a full collection.
// The tenured threshold is then resized to the target liveness, clamped
// to maxCap and to minimum headroom above the live words.
func (c *Generational) finishMajor(live, maxCap uint64) {
	c.los.TakeFresh()
	c.ev.condemnedDead()
	c.nursery.Reset()
	if c.aging != nil {
		c.aging = c.heap.ReplaceSpace(c.aging.ID(), c.cfg.NurseryWords+64)
	}
	c.sticky = c.sticky[:0]
	c.dropBarrier()
	c.pretenured.clear()

	newCap := min(uint64(float64(live)/targetTenuredLiveness), maxCap)
	// Budget-starved: keep limping with minimum headroom.
	c.tenCap = max(newCap, live+c.cfg.NurseryWords/4+256)
}

// updateMaxLive records the live-set high-water mark. It is only called
// after a major collection, when the tenured space holds exactly the live
// data; between majors ten.Used() also counts promoted-but-dead objects
// and would wildly overestimate (the calibration pass forces frequent
// majors to sample tightly).
func (c *Generational) updateMaxLive() {
	liveBytes := (c.tenLive() + c.los.UsedWords()) * mem.WordSize
	if liveBytes > c.stats.MaxLiveBytes {
		c.stats.MaxLiveBytes = liveBytes
	}
}

// forwardRootOn forwards the pointer at a root location of one thread's
// stack.
func (c *Generational) forwardRootOn(ev *evacuator, st *rt.Stack, loc RootLoc) {
	c.stats.RootsFound++
	if loc.IsReg {
		v := st.Reg(loc.Index)
		nv := ev.forward(v)
		if nv != v {
			st.SetReg(loc.Index, nv)
		}
		c.captureRoot(st, loc, nv)
		return
	}
	v := st.RawSlot(loc.Index)
	nv := ev.forward(v)
	if nv != v {
		st.SetRawSlot(loc.Index, nv)
	}
	c.captureRoot(st, loc, nv)
}

// captureRoot records a root location left holding a tenured pointer
// during a compacting major's root scan; the compaction fixup revisits
// exactly these locations once slide destinations are known. No-op
// outside the capture window.
func (c *Generational) captureRoot(st *rt.Stack, loc RootLoc, v uint64) {
	if !c.compactCapture {
		return
	}
	if a := mem.Addr(v); !a.IsNil() && a.Space() == c.old.id {
		c.rootFix = append(c.rootFix, rootFixEntry{st: st, loc: loc})
	}
}
