// Package prof implements the heap profiler of §6: it classifies objects
// by allocation site and records, per site, the bytes and objects
// allocated, the fraction surviving their first collection (old%), the
// average age at death, and the bytes copied over all collections — the
// data from which Figure 2's reports and the pretenuring policy are built.
//
// The paper's profiler prepends a site identifier to each object and
// scans the allocation area after each collection to find the dead. Ours
// keeps the same per-object facts beside the heap: each space has a
// lifetime record per object, held in ascending address order, because
// bump allocation and Cheney copying both hand out ascending addresses and
// mark-compact slides keep the order. A move tombstones the source record
// (found by binary search) and appends one in the destination space; a
// condemned space's deaths are its untombstoned records, walked once in
// address order. Spaces that allocate from free lists append out of order
// and are sorted once before their next lookup or walk. No Go map is
// touched per allocation, move or death.
package prof

import (
	"cmp"
	"slices"

	"tilgc/internal/core"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/trace"
)

// objRec is one object's lifetime record in its space's table.
type objRec struct {
	off        uint64 // word offset in the space
	birth      uint64 // allocation clock (total bytes allocated) at birth
	sizeBytes  uint64
	site       obj.SiteID
	survived   bool // has survived at least one collection
	pretenured bool // was allocated directly into the tenured generation
	gone       bool // tombstone: the object moved out or died
}

// spaceRecs is one space's lifetime records. Unless unsorted is set,
// their offsets, tombstones included, strictly ascend: a record is found
// by binary search and a walk visits the space in address order.
type spaceRecs struct {
	recs     []objRec
	gone     int  // tombstones in recs
	unsorted bool // an append landed at or below the last offset
}

func (t *spaceRecs) add(r objRec) {
	if n := len(t.recs); n > 0 && t.recs[n-1].off >= r.off {
		t.unsorted = true
	}
	t.recs = append(t.recs, r)
}

// settle drops the tombstones and, when a free-list allocation appended
// out of order, sorts the records back into address order.
func (t *spaceRecs) settle() {
	t.dropGone()
	if t.unsorted {
		slices.SortFunc(t.recs, func(a, b objRec) int { return cmp.Compare(a.off, b.off) })
		t.unsorted = false
	}
}

func (t *spaceRecs) dropGone() {
	if t.gone > 0 {
		t.recs = slices.DeleteFunc(t.recs, func(r objRec) bool { return r.gone })
		t.gone = 0
	}
}

// find returns the index of the live record at off, or -1.
func (t *spaceRecs) find(off uint64) int {
	if t.unsorted {
		t.settle()
	}
	lo, hi := 0, len(t.recs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.recs[m].off < off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(t.recs) || t.recs[lo].off != off || t.recs[lo].gone {
		return -1
	}
	return lo
}

// kill tombstones record i. Once more than half the table is tombstones
// they are dropped, so a non-moving space that reclaims in place never
// accumulates its dead, at amortized constant cost per death.
func (t *spaceRecs) kill(i int) {
	t.recs[i].gone = true
	t.gone++
	if 2*t.gone > len(t.recs) {
		t.dropGone()
	}
}

// reset empties the table, keeping its capacity for the space's next use.
func (t *spaceRecs) reset() {
	t.recs = t.recs[:0]
	t.gone = 0
	t.unsorted = false
}

// DeathClass tells an Observer where an object was in its generational
// life when it died.
type DeathClass uint8

const (
	// DeathYoung: died without ever being copied or pretenured — nursery
	// garbage, the cheap case generational collection is built around.
	DeathYoung DeathClass = iota
	// DeathOld: survived at least one collection (was copied) and died in
	// the old generation.
	DeathOld
	// DeathPretenured: was allocated directly into the tenured generation
	// and died there — the tenured garbage a mistrained pretenuring
	// decision produces.
	DeathPretenured
)

// Observer receives the online per-site lifetime event stream the adaptive
// pretenuring engine (internal/adapt) consumes: allocations (with the
// pretenured bit), first-collection survivals (with age at survival, in
// bytes of allocation), classified deaths, and collection boundaries.
// Events fire in the profiler's deterministic order: a condemned space's
// deaths in ascending address order, in-place reclamations in the order
// the collector reports them, and end-of-run deaths by space id, then
// address. A nil observer costs one branch per event.
type Observer interface {
	ObserveAlloc(site obj.SiteID, words uint64, pretenured bool)
	ObserveSurvive(site obj.SiteID, words uint64, ageBytes uint64)
	ObserveDeath(site obj.SiteID, words uint64, class DeathClass)
	ObserveGCEnd()
}

// SiteStats aggregates one allocation site. The fields after
// SumDeathAgeKB are the trace's per-site counts (see TraceSites).
type SiteStats struct {
	Site          obj.SiteID
	Name          string
	AllocBytes    uint64
	AllocCount    uint64
	CopiedBytes   uint64 // every move, mark-compact slides included
	SurvivedFirst uint64 // objects that survived their first collection
	Deaths        uint64
	SumDeathAgeKB float64 // sum over deaths of (bytes allocated during lifetime)/1024

	PretenuredCount uint64 // objects allocated directly into the tenured generation
	PretenuredBytes uint64
	MovedBytes      uint64 // bytes copied to another space; slides excluded
	TenuredBytes    uint64 // bytes landing in the tenured space: pretenured or moved there
	DiedBytes       uint64
}

// OldPct returns the percentage of objects surviving their first
// collection.
func (s *SiteStats) OldPct() float64 {
	if s.AllocCount == 0 {
		return 0
	}
	return 100 * float64(s.SurvivedFirst) / float64(s.AllocCount)
}

// AvgAgeKB returns the average age at death in kilobytes of allocation.
func (s *SiteStats) AvgAgeKB() float64 {
	if s.Deaths == 0 {
		return 0
	}
	return s.SumDeathAgeKB / float64(s.Deaths)
}

// CopyRatio returns copied size / allocated size for the site.
func (s *SiteStats) CopyRatio() float64 {
	if s.AllocBytes == 0 {
		return 0
	}
	return float64(s.CopiedBytes) / float64(s.AllocBytes)
}

// Profiler implements core.Profiler.
type Profiler struct {
	sites     []*SiteStats // indexed by site id; nil until the site is seen
	siteNames map[obj.SiteID]string
	spaces    []spaceRecs // indexed by space id
	clock     uint64      // total bytes allocated

	// observer, when set, receives the online lifetime event stream (§9).
	observer Observer
}

// New creates an empty profiler. siteNames is optional documentation for
// report rendering (may be nil).
func New(siteNames map[obj.SiteID]string) *Profiler {
	return &Profiler{siteNames: siteNames}
}

func (p *Profiler) site(id obj.SiteID) *SiteStats {
	if int(id) >= len(p.sites) {
		p.sites = append(p.sites, make([]*SiteStats, int(id)+1-len(p.sites))...)
	}
	s := p.sites[id]
	if s == nil {
		s = &SiteStats{Site: id, Name: p.siteNames[id]}
		p.sites[id] = s
	}
	return s
}

// table returns space id's records, growing the index on first use.
func (p *Profiler) table(id mem.SpaceID) *spaceRecs {
	if int(id) >= len(p.spaces) {
		p.spaces = append(p.spaces, make([]spaceRecs, int(id)+1-len(p.spaces))...)
	}
	return &p.spaces[id]
}

// lookup returns space id's records, or nil if the space never had any.
func (p *Profiler) lookup(id mem.SpaceID) *spaceRecs {
	if int(id) >= len(p.spaces) {
		return nil
	}
	return &p.spaces[id]
}

// OnAlloc implements core.Profiler.
func (p *Profiler) OnAlloc(addr mem.Addr, site obj.SiteID, k obj.Kind, words uint64, pretenured bool) {
	bytes := words * mem.WordSize
	s := p.site(site)
	s.AllocBytes += bytes
	s.AllocCount++
	if pretenured {
		s.PretenuredCount++
		s.PretenuredBytes += bytes
		s.TenuredBytes += bytes
	}
	p.clock += bytes
	p.table(addr.Space()).add(objRec{
		off: addr.Offset(), site: site, sizeBytes: bytes, birth: p.clock, pretenured: pretenured,
	})
	if p.observer != nil {
		p.observer.ObserveAlloc(site, words, pretenured)
	}
}

// OnMove implements core.Profiler: the object moved (promotion or tenured
// copy); it survived and its bytes were copied. A move to another space
// tombstones the source record and appends it at the destination, which
// no collector condemns in the collection that fills it. A move within one
// space is a mark-compact slide, which keeps the live objects' order: the
// record is re-addressed in place, so an object promoted and then slid in
// the same collection is found again at its promoted address. A slide
// counts in CopiedBytes only; tenured, true when to is in the tenured
// space, matters only for a move to another space.
func (p *Profiler) OnMove(from, to mem.Addr, tenured bool) {
	t := p.lookup(from.Space())
	if t == nil {
		return // object predates profiling
	}
	sameSpace := from.Space() == to.Space()
	if sameSpace && t.gone > 0 {
		t.settle() // in-place re-addressing needs a table without tombstones
	}
	i := t.find(from.Offset())
	if i < 0 {
		return // object predates profiling
	}
	rec := &t.recs[i]
	s := p.site(rec.site)
	s.CopiedBytes += rec.sizeBytes
	if !rec.survived {
		rec.survived = true
		s.SurvivedFirst++
		if p.observer != nil && !rec.pretenured {
			p.observer.ObserveSurvive(rec.site, rec.sizeBytes/mem.WordSize, p.clock-rec.birth)
		}
	}
	if sameSpace {
		rec.off = to.Offset()
		if i > 0 && t.recs[i-1].off >= rec.off || i+1 < len(t.recs) && t.recs[i+1].off <= rec.off {
			t.unsorted = true
		}
		return
	}
	s.MovedBytes += rec.sizeBytes
	if tenured {
		s.TenuredBytes += rec.sizeBytes
	}
	moved := *rec
	moved.off = to.Offset()
	t.kill(i)
	p.table(to.Space()).add(moved)
}

// OnSpaceCondemned implements core.Profiler: records still live in the
// space did not move out — they are dead. Deaths are recorded in
// ascending address order: recordDeath accumulates a float age sum, and
// float addition is not associative, so the order is part of the output.
func (p *Profiler) OnSpaceCondemned(id mem.SpaceID) {
	t := p.lookup(id)
	if t == nil {
		return
	}
	p.condemn(t)
}

// condemn records every live record in t as dead, in address order, and
// empties the table.
func (p *Profiler) condemn(t *spaceRecs) {
	if t.unsorted {
		t.settle()
	}
	for i := range t.recs {
		if !t.recs[i].gone {
			p.recordDeath(&t.recs[i])
		}
	}
	t.reset()
}

// OnLOSDead implements core.Profiler.
func (p *Profiler) OnLOSDead(addr mem.Addr) {
	t := p.lookup(addr.Space())
	if t == nil {
		return
	}
	i := t.find(addr.Offset())
	if i < 0 {
		return
	}
	rec := t.recs[i]
	t.kill(i)
	p.recordDeath(&rec)
}

// OnGCEnd implements core.Profiler: the collection boundary the observer
// decides at. Moved records were re-homed as they moved.
func (p *Profiler) OnGCEnd() {
	if p.observer != nil {
		p.observer.ObserveGCEnd()
	}
}

func (p *Profiler) recordDeath(rec *objRec) {
	s := p.site(rec.site)
	s.Deaths++
	s.SumDeathAgeKB += float64(p.clock-rec.birth) / 1024
	s.DiedBytes += rec.sizeBytes
	if p.observer != nil {
		class := DeathYoung
		switch {
		case rec.pretenured:
			class = DeathPretenured
		case rec.survived:
			class = DeathOld
		}
		p.observer.ObserveDeath(rec.site, rec.sizeBytes/mem.WordSize, class)
	}
}

// SetObserver registers the online lifetime-event observer (the adaptive
// pretenuring engine). Call before the run starts; events already emitted
// are not replayed.
func (p *Profiler) SetObserver(o Observer) {
	p.observer = o
}

// Finalize treats every object still live as dying at the end of the run,
// charging its age, as the paper's end-of-run profile accounting does.
// Call once, after the workload completes. Spaces are visited in
// ascending id order and each in address order, for the same
// float-summation reason as OnSpaceCondemned. The record tables are
// released; the per-site statistics stay.
func (p *Profiler) Finalize() {
	for i := range p.spaces {
		p.condemn(&p.spaces[i])
	}
	p.spaces = nil
}

// Clock returns total bytes allocated so far.
func (p *Profiler) Clock() uint64 { return p.clock }

// TotalCopied returns the bytes copied across all sites.
func (p *Profiler) TotalCopied() uint64 {
	var n uint64
	for _, s := range p.sites {
		if s != nil {
			n += s.CopiedBytes
		}
	}
	return n
}

// TotalAllocated returns the bytes allocated across all sites.
func (p *Profiler) TotalAllocated() uint64 {
	var n uint64
	for _, s := range p.sites {
		if s != nil {
			n += s.AllocBytes
		}
	}
	return n
}

// Sites returns per-site statistics sorted by descending allocation, ties
// by ascending site id.
func (p *Profiler) Sites() []*SiteStats {
	out := make([]*SiteStats, 0, len(p.sites))
	for _, s := range p.sites {
		if s != nil {
			out = append(out, s)
		}
	}
	// The dense table is in ascending id order, so a stable sort keeps the
	// tie-break.
	slices.SortStableFunc(out, func(a, b *SiteStats) int { return cmp.Compare(b.AllocBytes, a.AllocBytes) })
	return out
}

// TraceSites returns the trace's per-site records in ascending site id,
// in words. After Finalize every allocated word has died once, so each
// record's DiedWords equals its AllocWords.
func (p *Profiler) TraceSites() []trace.SiteCounters {
	out := make([]trace.SiteCounters, 0, len(p.sites))
	for _, s := range p.sites {
		if s == nil {
			continue
		}
		out = append(out, trace.SiteCounters{
			Site:              s.Site,
			Name:              s.Name,
			AllocObjects:      s.AllocCount,
			AllocWords:        s.AllocBytes / mem.WordSize,
			PretenuredObjects: s.PretenuredCount,
			PretenuredWords:   s.PretenuredBytes / mem.WordSize,
			CopiedWords:       s.MovedBytes / mem.WordSize,
			TenuredWords:      s.TenuredBytes / mem.WordSize,
			DiedWords:         s.DiedBytes / mem.WordSize,
		})
	}
	return out
}

// Policy derives a pretenuring policy from the profile using the paper's
// rule: pretenure every site whose old% is at least cutoffPct (the paper
// uses PaperCutoffPct). Sites with fewer than minObjects allocations are
// ignored as noise.
func (p *Profiler) Policy(cutoffPct float64, minObjects uint64) *core.PretenurePolicy {
	sites := make(map[obj.SiteID]core.PretenureDecision)
	for _, s := range p.sites {
		if s != nil && s.AllocCount >= minObjects && s.OldPct() >= cutoffPct {
			sites[s.Site] = core.PretenureDecision{}
		}
	}
	return core.NewPretenurePolicy(sites)
}

// CutoffSummary reports, for a given old% cutoff, the share of all copied
// bytes and of all allocated bytes contributed by the targeted sites —
// the two numbers printed at the foot of Figure 2's reports.
func (p *Profiler) CutoffSummary(cutoffPct float64) (copiedPct, allocPct float64) {
	var copied, alloc, tc, ta uint64
	for _, s := range p.sites {
		if s == nil {
			continue
		}
		tc += s.CopiedBytes
		ta += s.AllocBytes
		if s.OldPct() >= cutoffPct {
			copied += s.CopiedBytes
			alloc += s.AllocBytes
		}
	}
	if tc > 0 {
		copiedPct = 100 * float64(copied) / float64(tc)
	}
	if ta > 0 {
		allocPct = 100 * float64(alloc) / float64(ta)
	}
	return copiedPct, allocPct
}
