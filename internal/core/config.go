package core

import (
	"errors"
	"fmt"

	"tilgc/internal/trace"
)

// PaperMarkerN is the paper's stack-marker spacing n (§5): front ends
// that enable generational stack collection without naming a spacing
// place a marker every PaperMarkerN frames.
const PaperMarkerN = 25

// Config parameterizes both collectors: the semispace baseline and the
// two-generation collector of §2.1 with its optional extensions,
// generational stack collection (MarkerN) and profile-driven pretenuring
// (Pretenure, ScanElision). Semispace selects the collector; Validate
// rejects every field the selected collector would ignore.
type Config struct {
	// Semispace selects the Cheney-scan semispace baseline instead of the
	// generational collector (harness.Build reads it).
	Semispace bool
	// BudgetWords is the total memory allowance (the paper's k·Min, with
	// Min = twice the maximum live data), large-object space included.
	BudgetWords uint64
	// InitialWords sizes the semispace collector's first semispace; zero
	// picks a small default.
	InitialWords uint64
	// NurseryWords sizes the first generation. Following Tarditi-Diwan,
	// the nursery is never larger than the secondary cache: 512KB =
	// 65536 words. Benchmarks sometimes use a smaller nursery.
	NurseryWords uint64
	// LargeObjectWords is the LOS threshold: array allocations of at
	// least this many payload words go to the mark-sweep space.
	LargeObjectWords uint64
	// MarkerN enables generational stack collection with a marker every
	// n frames. Zero disables it. The paper uses n = PaperMarkerN; §7.1
	// notes the technique applies to the semispace collector too.
	MarkerN int
	// MarkerPolicy selects fixed-interval (the paper's) or exponential
	// marker placement (§7.1's "more dynamic policy").
	MarkerPolicy MarkerPolicy
	// AgingMinors switches off the paper's immediate-promotion policy:
	// nursery survivors age through an intermediate space for this many
	// further minor collections before tenuring, where §7.2 predicts
	// pretenuring pays off even more. Zero is the paper's configuration.
	AgingMinors int
	// Pretenure, when non-nil, allocates the selected sites directly
	// into the tenured generation (§6).
	Pretenure *PretenurePolicy
	// Advisor, when non-nil, is consulted on every small-object allocation
	// whose site the static policy did not select: a true answer sends the
	// allocation to the tenured generation (§9 online adaptive
	// pretenuring). The advisor may change its answers between
	// collections (promotion and demotion).
	Advisor SiteAdvisor
	// ScanElision enables the §7.2 extension: pretenured objects whose
	// site is flagged OnlyOldRefs are exempted from the region scan.
	ScanElision bool
	// CardTable replaces the sequential store buffer with card marking
	// (the §4 remedy for Peg's mutation-heavy behaviour).
	CardTable bool
	// DeferMajor bounds individual pauses: when a minor collection pushes
	// the tenured generation over its threshold, the major collection runs
	// as its own pause at the next GC trigger instead of inside the same
	// pause. The same collections happen with the same work; only the
	// pause boundaries move. False is the in-pause escalation.
	DeferMajor bool
	// OldCollector selects the tenured-generation algorithm: the paper's
	// copying collector (zero value, the default), bitmap mark-sweep, or
	// sliding mark-compact. Client-observable results are byte-identical
	// across all three; GC cost, pause shape, and footprint differ (see
	// gcbench -experiment oldgen).
	OldCollector OldCollector
	// GCWorkers > 1 enables the deterministic parallel copying phases:
	// the identical serial work order (heap images are byte-identical at
	// every W), with parallel-phase cycles distributed over W simulated
	// workers so pause wall time is their critical path. Zero or 1 is
	// the serial collector.
	GCWorkers int
	// Trace, when non-nil, receives phase spans and per-site telemetry.
	// Tracing charges nothing to the meter.
	Trace *trace.Recorder
}

// setDefaults fills the zero sizes. Each collector reads only its own:
// InitialWords is the semispace's, NurseryWords the generational's.
func (c *Config) setDefaults() {
	if c.BudgetWords == 0 {
		c.BudgetWords = 64 << 20 // effectively unconstrained
	}
	if c.LargeObjectWords == 0 {
		c.LargeObjectWords = 1024 // 8KB
	}
	if c.InitialWords == 0 {
		c.InitialWords = 16 * 1024
	}
	if c.NurseryWords == 0 {
		c.NurseryWords = 64 * 1024 // 512KB
	}
}

// Validate reports every field the selected collector would silently
// ignore, every negative count, and an unknown OldCollector, joined, each
// naming its field. It is the one place that knows which knob each
// collector honours; every front end's configuration reaches it through
// harness.Build.
func (c Config) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if c.Semispace {
		// The semispace baseline has no nursery, no write barrier, no
		// promotion, and no tenured generation: every generational knob
		// is meaningless rather than defaulted.
		for _, k := range []struct {
			set         bool
			field, lack string
		}{
			{c.NurseryWords != 0, "NurseryWords", "nursery"},
			{c.CardTable, "CardTable", "write barrier"},
			{c.AgingMinors != 0, "AgingMinors", "promotion"},
			{c.Pretenure != nil, "Pretenure", "tenured generation"},
			{c.ScanElision, "ScanElision", "pretenured region"},
			{c.DeferMajor, "DeferMajor", "minor collection to defer a major from"},
			{c.Advisor != nil, "Advisor", "tenured generation"},
			{c.OldCollector != OldCopy, "OldCollector", "old generation"},
		} {
			if k.set {
				bad("%s is set but the semispace collector has no %s", k.field, k.lack)
			}
		}
	} else {
		if c.InitialWords != 0 {
			bad("InitialWords is set but the generational collector sizes its nursery by NurseryWords")
		}
		if c.ScanElision && c.Pretenure == nil {
			bad("ScanElision is set but Pretenure is nil, so there is no pretenured region to elide")
		}
	}
	if c.OldCollector > OldMarkCompact {
		bad("unknown OldCollector %d (want copy, marksweep, or markcompact)", c.OldCollector)
	}
	if c.MarkerN < 0 {
		bad("MarkerN %d is negative", c.MarkerN)
	}
	if c.AgingMinors < 0 {
		bad("AgingMinors %d is negative", c.AgingMinors)
	}
	if c.GCWorkers < 0 {
		bad("GCWorkers %d is negative", c.GCWorkers)
	}
	return errors.Join(errs...)
}
