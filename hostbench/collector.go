package main

import (
	"time"

	"tilgc/internal/core"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// countingCollector decorates a core.Collector the way sanitize.Wrap
// does: every call passes straight through to the wrapped collector, so
// the simulation is unchanged. It counts every mutator call and times
// only the calls that can collect. A time.Now costs about 100 ns, the
// order of a whole simulated allocation, so timing every Alloc would
// double the run it measures.
//
// On a generational collector without pretenuring an Alloc collects only
// when the request does not fit the nursery or goes to the large-object
// space; both are visible before the call. Every other collector has
// each Alloc timed. A call counts as collecting when Stats().NumGC moved
// across it, and only collecting calls add to gc.
type countingCollector struct {
	core.Collector
	stats      *core.GCStats
	nursery    *mem.Space // nil: collections are not predictable, time every Alloc
	largeWords uint64

	allocs, loads, stores uint64
	gc                    time.Duration // host time inside calls that collected
	caught                uint64        // collections that happened inside timed calls
}

func newCountingCollector(c core.Collector) *countingCollector {
	d := &countingCollector{Collector: c, stats: c.Stats()}
	if g, ok := c.(*core.Generational); ok {
		in := g.Inspect()
		if len(in.YoungSpaces) == 1 && in.Policy.Len() == 0 {
			d.nursery = in.Heap.Space(in.YoungSpaces[0])
			d.largeWords = in.LargeObjectWords
		}
	}
	return d
}

// Alloc implements core.Collector.
func (d *countingCollector) Alloc(k obj.Kind, length uint64, site obj.SiteID, mask uint64) mem.Addr {
	d.allocs++
	if d.nursery != nil && (k == obj.Record || length < d.largeWords) &&
		d.nursery.Free() >= obj.SizeWords(k, length) {
		return d.Collector.Alloc(k, length, site, mask)
	}
	n, t := d.stats.NumGC, time.Now()
	a := d.Collector.Alloc(k, length, site, mask)
	d.endTimed(n, t)
	return a
}

// Collect implements core.Collector.
func (d *countingCollector) Collect(major bool) {
	n, t := d.stats.NumGC, time.Now()
	d.Collector.Collect(major)
	d.endTimed(n, t)
}

// LoadField implements core.Collector.
func (d *countingCollector) LoadField(a mem.Addr, i uint64) uint64 {
	d.loads++
	return d.Collector.LoadField(a, i)
}

// StoreField implements core.Collector.
func (d *countingCollector) StoreField(a mem.Addr, i uint64, v uint64, isPtr bool) {
	d.stores++
	d.Collector.StoreField(a, i, v, isPtr)
}

// InitField implements core.Collector.
func (d *countingCollector) InitField(a mem.Addr, i uint64, v uint64) {
	d.stores++
	d.Collector.InitField(a, i, v)
}

// endTimed closes a timed call that began at t with n collections done.
func (d *countingCollector) endTimed(n uint64, t time.Time) {
	if moved := d.stats.NumGC - n; moved > 0 {
		d.gc += time.Since(t)
		d.caught += moved
	}
}

// allCaught reports whether every collection so far happened inside a
// timed call, which is what makes gc a complete account.
func (d *countingCollector) allCaught() bool { return d.caught == d.stats.NumGC }
