// Package trace is the deterministic GC telemetry layer: collectors and
// the simulated runtime emit phase spans, per-collection counters, and
// per-allocation-site statistics into a Recorder, all timestamped in
// simulated cycles from the cost model (internal/costmodel) — never the
// host clock. Because every emitted quantity is a pure function of the
// workload and the collector configuration, trace output is byte-identical
// across runs, machines, and harness parallelism levels.
//
// The layer answers the question the end-of-run aggregates cannot: where
// did the cycles go in collection #N? Each collection is a span subdivided
// into phases (setup, root enumeration, remembered-set drain, pretenured
// region scan, Cheney copy, LOS sweep), each phase carrying a full meter
// snapshot at entry and exit so per-phase client/gc-stack/gc-copy deltas
// reconcile exactly with the run's final costmodel.Meter totals.
//
// Two sink formats are provided: a schema-versioned JSONL stream (one
// event per line, see jsonl.go) and Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing (chrome.go). Both are written from the same
// in-memory RunData and are deterministic.
//
// Tracing charges nothing to the meter: a traced run measures exactly the
// same simulated times and statistics as an untraced one.
package trace

import (
	"tilgc/internal/costmodel"
	"tilgc/internal/obj"
)

// SchemaVersion is the JSONL trace-format version. Bump when record
// shapes or event semantics change incompatibly.
const SchemaVersion = 1

// Phase names one sub-interval of a collection pause. Phases tile every
// cycle a collector charges during a collection: all GC-component meter
// charges happen strictly inside some phase span, which is what makes the
// per-phase breakdown reconcile exactly with the meter.
type Phase uint8

const (
	// PhaseSetup covers the fixed collection overhead: entering the
	// collection, depth bookkeeping, and space preparation.
	PhaseSetup Phase = iota
	// PhaseRoots is root enumeration: the (possibly marker-cached) stack
	// scan, including evacuation work triggered eagerly by root
	// forwarding. Marker hit/miss counts accrue here.
	PhaseRoots
	// PhaseRemSet is the remembered-set drain: SSB entries or dirty
	// cards, plus the sticky old-to-aging set.
	PhaseRemSet
	// PhasePretenured is the pretenured-region scan (§6) plus the scan
	// of large objects allocated since the last collection.
	PhasePretenured
	// PhaseCopy is the Cheney drain to a fixpoint.
	PhaseCopy
	// PhaseSweep is the large-object-space mark-sweep (major collections).
	// Under a non-moving old generation it also covers the tenured-space
	// bitmap sweep that rebuilds the free lists.
	PhaseSweep
	// PhaseMark is the transitive-mark drain of a non-moving old
	// generation's major collection: young survivors are evacuated and
	// tenured objects get their bitmap bits set, to a fixpoint.
	PhaseMark
	// PhaseCompact is the mark-compact slide: pointer fixup plus the
	// order-preserving slide of live tenured objects toward the space base.
	PhaseCompact
	numPhases
)

// phaseNames maps phases to their wire names (stable; part of the schema).
var phaseNames = [numPhases]string{
	PhaseSetup:      "setup",
	PhaseRoots:      "roots",
	PhaseRemSet:     "remset",
	PhasePretenured: "pretenured",
	PhaseCopy:       "copy",
	PhaseSweep:      "sweep",
	PhaseMark:       "mark",
	PhaseCompact:    "compact",
}

// String returns the phase's wire name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// ParsePhase resolves a wire name back to its Phase.
func ParsePhase(s string) (Phase, bool) {
	for p, n := range phaseNames {
		if n == s {
			return Phase(p), true
		}
	}
	return 0, false
}

// Phases returns all phases in declaration order.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// EventKind distinguishes the span events a Recorder collects.
type EventKind uint8

const (
	// EvGCBegin opens a collection span.
	EvGCBegin EventKind = iota
	// EvGCEnd closes a collection span; it carries the per-collection
	// counter deltas.
	EvGCEnd
	// EvPhaseBegin opens a phase span inside the current collection.
	EvPhaseBegin
	// EvPhaseEnd closes a phase span.
	EvPhaseEnd
)

// Event is one span boundary. At every boundary the full meter snapshot is
// recorded, so any interval's client/gc-stack/gc-copy deltas can be read
// directly off the two bounding events. The timestamp is Break.Total().
type Event struct {
	Kind  EventKind
	Seq   uint64 // collection number, 1-based
	Major bool   // EvGCBegin: collection was requested as a major
	Phase Phase  // phase events only
	Break costmodel.Breakdown
	// Counters is set on EvGCEnd only: the collection's stat deltas.
	Counters *GCCounters
	// Workers is set on EvPhaseEnd for parallel collection phases only
	// (W > 1): the simulated cycles each collector worker spent in the
	// phase, indexed by worker rank. The phase's wall-clock GC delta
	// equals exactly max(Workers); the hidden sum-max difference is
	// accounted in RunData.Overlap. Single-worker runs never set it, so
	// their streams are byte-identical to pre-parallel builds.
	Workers []uint64
}

// At returns the event's timestamp in simulated cycles.
func (e Event) At() costmodel.Cycles { return e.Break.Total() }

// GCCounters are the per-collection deltas of the collector statistics —
// the paper's Table 2/5 quantities, observable per collection instead of
// only end-of-run. FramesReused are marker hits (frames whose cached scan
// was reused or skipped); FramesDecoded are misses (full trace-table
// decodes). Majors is 1 when the collection was or escalated to a major.
type GCCounters struct {
	Majors        uint64 `json:"majors"`
	FramesDecoded uint64 `json:"frames_decoded"`
	FramesReused  uint64 `json:"frames_reused"`
	MarkersPlaced uint64 `json:"markers_placed"`
	RootsFound    uint64 `json:"roots_found"`
	BytesCopied   uint64 `json:"bytes_copied"`
	BytesScanned  uint64 `json:"bytes_scanned"`
	ObjectsCopied uint64 `json:"objects_copied"`
	SSBProcessed  uint64 `json:"ssb_processed"`
	LOSSwept      uint64 `json:"los_swept"`
	Pretenured    uint64 `json:"pretenured"`

	// Non-moving old-generation counters (bitmap mark-sweep/mark-compact
	// only). omitempty keeps copying-collector streams — including the
	// golden traces — byte-identical to pre-oldgen builds.
	ObjectsMarked uint64 `json:"objects_marked,omitempty"`
	WordsMarked   uint64 `json:"words_marked,omitempty"`
	WordsSwept    uint64 `json:"words_swept,omitempty"`
	WordsSlid     uint64 `json:"words_slid,omitempty"`
}

// Metric record names (see metricsView). The pause histogram is
// log2-bucketed: bucket i counts pauses p with 2^(i-1) <= p < 2^i.
// The adapt.* counters appear only once the advisor has reported
// something: non-adaptive runs carry none, keeping their metric streams
// (and the golden traces) byte-identical to pre-§9 builds.
const (
	MetricGCCount         = "gc.count"
	MetricGCMajors        = "gc.majors"
	MetricPauseCycles     = "gc.pause_cycles"
	MetricStubReturns     = "rt.stub_returns"
	MetricAdaptPromotions = "adapt.promotions"
	MetricAdaptDemotions  = "adapt.demotions"
	MetricAdaptSamples    = "adapt.samples"
)

// Adapt-decision verbs (stable; part of the schema).
const (
	AdaptPromote = "promote" // site crossed the survival cutoff: pretenure it
	AdaptDemote  = "demote"  // site's tenured garbage crossed the threshold: stop
	AdaptWarm    = "warm"    // site pretenured at startup from a prior run's store
)

// AdaptDecision is one online pretenuring decision (§9): the advisor
// promoted, demoted, or warm-started a site. Seq is the collection number
// the decision fired at (0 for warm-start decisions made before the first
// collection); Break is the full meter snapshot at decision time, making
// the timestamp Break.Total() like every other trace record.
type AdaptDecision struct {
	Seq         uint64
	Site        obj.SiteID
	Verb        string
	SurvivalPPM uint64 // site survival estimate, parts per million
	GarbagePPM  uint64 // tenured-garbage fraction since promotion, ppm
	SampleWords uint64 // decayed sample mass behind the estimate
	Break       costmodel.Breakdown
}

// SpaceOcc is one heap space's occupancy at a sample point: live words
// still in use after the collection, and committed words the space holds
// from the simulated OS. Names are stable per collector ("nursery",
// "aging", "tenured", "los", "semispace"). The JSONL heap record carries
// it as is.
type SpaceOcc struct {
	Name      string `json:"name"`
	Live      uint64 `json:"live"`
	Committed uint64 `json:"committed"`
}

// HeapSample is one end-of-collection footprint snapshot: per-space live
// and committed words, stamped like every other record with the full
// meter breakdown (timestamp Break.Total()) and the collection number it
// closes. Samples are emitted only when heap sampling is enabled on the
// Recorder, so default traces — including the golden fixture — carry none.
type HeapSample struct {
	Seq    uint64
	Break  costmodel.Breakdown
	Spaces []SpaceOcc
}

// RequestSpan is one served request on the simulated-cycle timeline: the
// meter breakdowns at arrival and completion. Latency is
// End.Total()-Begin.Total(); the GC share of that latency — the pause
// cycles that landed inside the request — reads directly off the same two
// snapshots as End.GC()-Begin.GC(). Spans are emitted only by workloads
// that wrap their requests (workload.Mutator.Request), so batch traces
// carry none.
type RequestSpan struct {
	ID    uint64
	Begin costmodel.Breakdown
	End   costmodel.Breakdown
}

// Latency returns the request's simulated-cycle duration.
func (s RequestSpan) Latency() costmodel.Cycles { return s.End.Total() - s.Begin.Total() }

// GCCycles returns the collector cycles that landed inside the request.
func (s RequestSpan) GCCycles() costmodel.Cycles { return s.End.GC() - s.Begin.GC() }
