package core

import (
	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// PretenureDecision describes how the collector treats one allocation site
// selected for pretenuring.
type PretenureDecision struct {
	// OnlyOldRefs asserts (from dataflow analysis, §7.2) that objects
	// from this site only ever reference pretenured or tenured data, so
	// the post-allocation region scan can skip them entirely — the
	// optimization that cut Nqueen's remaining GC time by a further 80%.
	OnlyOldRefs bool
}

// PretenurePolicy maps allocation sites to pretenuring decisions. Sites
// absent from the policy allocate normally (in the nursery). Policies are
// built from heap profiles (internal/prof) using the paper's old% cutoff.
// The decisions are a dense table indexed by site id, so the per-
// allocation Lookup is one bounds check and one load.
type PretenurePolicy struct {
	sites []policySite // indexed by site id
	n     int          // sites selected
}

type policySite struct {
	d  PretenureDecision
	on bool
}

// NewPretenurePolicy builds a policy from explicit per-site decisions.
func NewPretenurePolicy(sites map[obj.SiteID]PretenureDecision) *PretenurePolicy {
	size := 0
	for id := range sites {
		size = max(size, int(id)+1)
	}
	p := &PretenurePolicy{sites: make([]policySite, size), n: len(sites)}
	for id, d := range sites {
		p.sites[id] = policySite{d: d, on: true}
	}
	return p
}

// set selects site with decision d.
func (p *PretenurePolicy) set(site obj.SiteID, d PretenureDecision) {
	if int(site) >= len(p.sites) {
		p.sites = append(p.sites, make([]policySite, int(site)+1-len(p.sites))...)
	}
	if !p.sites[site].on {
		p.n++
	}
	p.sites[site] = policySite{d: d, on: true}
}

// Lookup returns the decision for a site and whether the site is
// pretenured at all.
func (p *PretenurePolicy) Lookup(site obj.SiteID) (PretenureDecision, bool) {
	if p == nil || int(site) >= len(p.sites) {
		return PretenureDecision{}, false
	}
	e := p.sites[site]
	return e.d, e.on
}

// Len returns the number of pretenured sites.
func (p *PretenurePolicy) Len() int {
	if p == nil {
		return 0
	}
	return p.n
}

// Sites returns the pretenured site ids in ascending order.
func (p *PretenurePolicy) Sites() []obj.SiteID {
	if p == nil {
		return nil
	}
	ids := make([]obj.SiteID, 0, p.n)
	for id, e := range p.sites {
		if e.on {
			ids = append(ids, obj.SiteID(id))
		}
	}
	return ids
}

// mergePolicies returns the union of two policies (either may be nil),
// b's decision winning where both select a site. When only one is
// non-empty it is returned as-is; the merged copy is only built when both
// contribute, so the common static-only and advisor-only configurations
// pay nothing.
func mergePolicies(a, b *PretenurePolicy) *PretenurePolicy {
	if b.Len() == 0 {
		return a
	}
	if a.Len() == 0 {
		return b
	}
	m := &PretenurePolicy{}
	for _, p := range []*PretenurePolicy{a, b} {
		for id, e := range p.sites {
			if e.on {
				m.set(obj.SiteID(id), e.d)
			}
		}
	}
	return m
}

// region is a contiguous range of tenured words allocated into directly
// (pretenured objects) since the last minor collection. The collector
// "remember[s] the area of the older generation that has been directly
// allocated into and scan[s] this region ... on the next collection" (§6).
type region struct {
	space mem.SpaceID
	start uint64 // first word offset
	end   uint64 // one past the last word offset
}

// regionSet accumulates pretenured-allocation regions, coalescing
// adjacent allocations so a run of pretenured objects is one region.
type regionSet struct {
	regions []region
}

// add records words [start, start+size) of space as pretenured-allocated.
func (rs *regionSet) add(space mem.SpaceID, start, size uint64) {
	if n := len(rs.regions); n > 0 {
		last := &rs.regions[n-1]
		if last.space == space && last.end == start {
			last.end += size
			return
		}
	}
	rs.regions = append(rs.regions, region{space: space, start: start, end: start + size})
}

// clear drops all regions (after the minor collection scanned them).
func (rs *regionSet) clear() { rs.regions = rs.regions[:0] }

// words returns the total words covered.
func (rs *regionSet) words() uint64 {
	var n uint64
	for _, r := range rs.regions {
		n += r.end - r.start
	}
	return n
}
