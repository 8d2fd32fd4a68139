package fuzz

import (
	"tilgc/internal/core"
	"tilgc/internal/obj"
)

// Matrix constants. Tight budgets make collections frequent: a 256-word
// nursery turns a few hundred ops into dozens of minor collections, and
// a LOS threshold of 64 words sits inside the generated array-length
// range so the same program exercises both small-array and LOS paths.
const (
	nurseryWords     = 256
	largeObjectWords = 64
	budgetSlackWords = 8192
	fuzzMarkerN      = 3
	fuzzAgingMinors  = 2
)

// PretenureSites is the site subset the ±pretenure matrix entries
// allocate directly into the tenured generation.
var PretenureSites = []obj.SiteID{3, 5}

// Config is one collector configuration in the differential matrix.
type Config struct {
	// Name labels the configuration in failures and reports.
	Name string
	// Semispace selects the semispace baseline instead of the
	// generational collector.
	Semispace bool
	// MarkerN enables generational stack collection with this spacing.
	MarkerN int
	// Cards replaces the SSB with card marking.
	Cards bool
	// AgingMinors delays promotion through an aging space.
	AgingMinors int
	// Pretenure statically pretenures PretenureSites.
	Pretenure bool
	// Adapt attaches the online pretenuring advisor (generational entries
	// only: harness.Build panics on a semispace one).
	Adapt bool
	// Workers enables the deterministic parallel copying phases with
	// this worker count (0 or 1 is serial). Parallelism is accounting-
	// only, so the divergence oracle proves every client-visible result
	// is worker-count-invariant, and run-twice pins the sharded trace.
	Workers int
	// Old selects the old-generation collector (copy, marksweep, or
	// markcompact). The three produce different GC-side costs and heap
	// layouts but identical client-visible results, so the divergence
	// oracle holds across them. A semispace entry that sets it is
	// rejected: harness.Build panics, and the oracles report a crash.
	Old core.OldCollector

	// wrap, when non-nil, decorates the freshly-built collector before
	// the program runs. It exists for the broken-collector injection
	// tests, which prove the oracles catch seeded corruption end-to-end.
	wrap func(core.Collector) core.Collector
}

// Matrix returns the standard differential matrix. The first entry is
// the baseline every other configuration's client-visible results are
// compared against. Scan elision is deliberately absent: its OnlyOldRefs
// contract is an assertion about the workload, which arbitrary generated
// programs do not honor.
func Matrix() []Config {
	return []Config{
		{Name: "semispace", Semispace: true},
		{Name: "semispace+markers", Semispace: true, MarkerN: fuzzMarkerN},
		{Name: "gen"},
		{Name: "gen+markers", MarkerN: fuzzMarkerN},
		{Name: "gen+cards", Cards: true},
		{Name: "gen+pretenure", Pretenure: true},
		{Name: "gen+aging", AgingMinors: fuzzAgingMinors},
		{Name: "gen+aging+cards", AgingMinors: fuzzAgingMinors, Cards: true},
		{Name: "gen+adapt", Adapt: true},
		{Name: "gen+markers+adapt", MarkerN: fuzzMarkerN, Adapt: true},
		{Name: "semispace+w4", Semispace: true, Workers: 4},
		{Name: "gen+w4", Workers: 4},
		{Name: "gen+markers+w2", MarkerN: fuzzMarkerN, Workers: 2},
		{Name: "gen+marksweep", Old: core.OldMarkSweep},
		{Name: "gen+marksweep+pretenure", Old: core.OldMarkSweep, Pretenure: true},
		{Name: "gen+marksweep+markers", Old: core.OldMarkSweep, MarkerN: fuzzMarkerN},
		{Name: "gen+marksweep+adapt", Old: core.OldMarkSweep, Adapt: true},
		{Name: "gen+marksweep+w4", Old: core.OldMarkSweep, Workers: 4},
		{Name: "gen+markcompact", Old: core.OldMarkCompact},
		{Name: "gen+markcompact+pretenure", Old: core.OldMarkCompact, Pretenure: true},
		{Name: "gen+markcompact+w2", Old: core.OldMarkCompact, Workers: 2},
	}
}

// siteNames labels the fuzz allocation sites for profiler and trace
// output (identical across configs so trace bytes stay comparable).
var siteNames = func() map[obj.SiteID]string {
	m := make(map[obj.SiteID]string, NumSites)
	names := [NumSites]string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := 0; i < NumSites; i++ {
		m[obj.SiteID(i+1)] = names[i]
	}
	return m
}()

// budgetFor sizes a program's memory budget: live data can never exceed
// what the program allocates, so twice that plus slack keeps every
// configuration inside its budget while staying tight enough to force
// frequent collections via the small nursery.
func budgetFor(p *Program) uint64 {
	return 2*p.AllocWords() + budgetSlackWords
}

// pretenurePolicy builds the static policy for ±pretenure entries.
func pretenurePolicy() *core.PretenurePolicy {
	sites := make(map[obj.SiteID]core.PretenureDecision, len(PretenureSites))
	for _, s := range PretenureSites {
		sites[s] = core.PretenureDecision{}
	}
	return core.NewPretenurePolicy(sites)
}
