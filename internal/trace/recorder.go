package trace

import (
	"fmt"

	"tilgc/internal/costmodel"
	"tilgc/internal/obj"
)

// Recorder collects one run's trace: span events, the advisor's decisions
// and sample count, footprint samples and request spans. Collectors call
// the emit methods at collection and phase boundaries. The per-site
// counters and the stub-return count are kept by the heap profiler and
// the stacks; Finish takes them at the end of the run. A nil *Recorder is
// valid and records nothing, so instrumentation sites call methods
// unconditionally.
//
// A Recorder is single-run, single-goroutine state, like the meter it
// reads timestamps from; the harness creates one per traced run.
type Recorder struct {
	meter *costmodel.Meter

	events []Event

	seq       uint64
	gcOpen    bool
	phaseOpen bool

	// Set by Finish: the final meter totals, the per-site counters and
	// the count of mutator returns through marker stubs, which reaches
	// the trace only as a metric.
	finished     bool
	final        costmodel.Breakdown
	finalOverlap costmodel.Cycles
	sites        []SiteCounters
	stubReturns  uint64

	// Adaptive-pretenuring telemetry (§9): the advisor's decisions, and
	// its sample count with a flag saying it counted any. Non-adaptive
	// runs set none of them, so their traces carry no adapt records.
	adapt        []AdaptDecision
	adaptSamples uint64
	adaptSampled bool

	// Footprint and request telemetry (SLO layer). Both are opt-in /
	// workload-driven: heap samples are recorded only after
	// EnableHeapSampling, request spans only when a workload wraps its
	// requests — so pre-existing traces stay byte-identical.
	heapOn bool
	heap   []HeapSample
	reqs   []RequestSpan
}

// SiteCounters aggregates one allocation site's telemetry, built from the
// heap profiler's per-site table at the end of the run: words allocated
// (and the share pretenured), words copied to another space by
// collections (mark-compact slides excluded), words landing in the
// tenured generation (pretenured or copied there), and words that died.
// The profiler kills every object still live at the end of the run, so
// DiedWords equals AllocWords. The JSONL site record embeds it, so the
// tags are wire names.
type SiteCounters struct {
	Site              obj.SiteID `json:"site"`
	Name              string     `json:"name,omitempty"`
	AllocObjects      uint64     `json:"alloc_objects"`
	AllocWords        uint64     `json:"alloc_words"`
	PretenuredObjects uint64     `json:"pretenured_objects"`
	PretenuredWords   uint64     `json:"pretenured_words"`
	CopiedWords       uint64     `json:"copied_words"`
	TenuredWords      uint64     `json:"tenured_words"`
	DiedWords         uint64     `json:"died_words"`
}

// NewRecorder creates a recorder reading timestamps from meter.
func NewRecorder(meter *costmodel.Meter) *Recorder {
	return &Recorder{meter: meter}
}

// BeginGC opens a collection span. major reports how the collection was
// requested; a minor collection that escalates still shows major=false
// here, with the escalation visible in the end counters.
func (r *Recorder) BeginGC(major bool) {
	if r == nil {
		return
	}
	if r.gcOpen {
		panic("trace: BeginGC inside an open collection span")
	}
	r.gcOpen = true
	r.seq++
	r.events = append(r.events, Event{Kind: EvGCBegin, Seq: r.seq, Major: major, Break: r.meter.Snapshot()})
}

// EndGC closes the current collection span with its counter deltas.
func (r *Recorder) EndGC(c GCCounters) {
	if r == nil {
		return
	}
	if !r.gcOpen || r.phaseOpen {
		panic("trace: EndGC without matching BeginGC or with an open phase")
	}
	r.gcOpen = false
	b := r.meter.Snapshot()
	// Copy into a local before taking the address: &c would make the
	// parameter itself escape, and escaping parameters are heap-allocated
	// in the prologue — i.e. on every call, including nil-recorder calls
	// from untraced runs, breaking the collectors' zero-allocation GC path.
	cc := c
	r.events = append(r.events, Event{Kind: EvGCEnd, Seq: r.seq, Break: b, Counters: &cc})
}

// BeginPhase opens a phase span inside the current collection.
func (r *Recorder) BeginPhase(p Phase) {
	if r == nil {
		return
	}
	if !r.gcOpen || r.phaseOpen {
		panic(fmt.Sprintf("trace: BeginPhase(%v) outside a collection or inside another phase", p))
	}
	r.phaseOpen = true
	r.events = append(r.events, Event{Kind: EvPhaseBegin, Seq: r.seq, Phase: p, Break: r.meter.Snapshot()})
}

// EndPhase closes the current phase span.
func (r *Recorder) EndPhase(p Phase) {
	if r == nil {
		return
	}
	if !r.phaseOpen {
		panic(fmt.Sprintf("trace: EndPhase(%v) with no open phase", p))
	}
	r.phaseOpen = false
	r.events = append(r.events, Event{Kind: EvPhaseEnd, Seq: r.seq, Phase: p, Break: r.meter.Snapshot()})
}

// EndPhaseWorkers closes the current phase span carrying the per-worker
// cycle tallies of a parallel collection phase. Callers must have
// already credited the phase's overlap back to the meter (see
// costmodel.WorkerTally.ClosePhase), so the snapshot taken here differs
// from the phase-begin snapshot by exactly max(workers).
func (r *Recorder) EndPhaseWorkers(p Phase, workers []costmodel.Cycles) {
	if r == nil {
		return
	}
	if !r.phaseOpen {
		panic(fmt.Sprintf("trace: EndPhaseWorkers(%v) with no open phase", p))
	}
	r.phaseOpen = false
	w := make([]uint64, len(workers))
	for i, c := range workers {
		w[i] = uint64(c)
	}
	r.events = append(r.events, Event{Kind: EvPhaseEnd, Seq: r.seq, Phase: p, Break: r.meter.Snapshot(), Workers: w})
}

// EnableHeapSampling turns on end-of-collection footprint snapshots.
// Collectors gate their sample construction on HeapSampling, so disabled
// (and untraced) runs build nothing and the zero-allocation GC path is
// preserved.
func (r *Recorder) EnableHeapSampling() {
	if r == nil {
		return
	}
	r.heapOn = true
}

// HeapSampling reports whether the recorder wants footprint snapshots.
// Nil-safe: a nil recorder never samples.
func (r *Recorder) HeapSampling() bool {
	return r != nil && r.heapOn
}

// HeapSample records one end-of-collection footprint snapshot. Collectors
// call it inside the open collection span, immediately before EndGC, so
// the sample carries the closing collection's number and a meter snapshot
// equal to the gc_end event's.
func (r *Recorder) HeapSample(spaces []SpaceOcc) {
	if r == nil || !r.heapOn {
		return
	}
	if !r.gcOpen {
		panic("trace: HeapSample outside a collection span")
	}
	r.heap = append(r.heap, HeapSample{Seq: r.seq, Break: r.meter.Snapshot(), Spaces: spaces})
}

// Request records one served request span from its two meter snapshots.
// Workloads call it (via workload.Mutator.Request) as each request
// completes, so spans arrive in completion order.
func (r *Recorder) Request(id uint64, begin, end costmodel.Breakdown) {
	if r == nil {
		return
	}
	r.reqs = append(r.reqs, RequestSpan{ID: id, Begin: begin, End: end})
}

// AdaptDecision records one online pretenuring decision, stamping it with
// the current collection number and meter snapshot.
func (r *Recorder) AdaptDecision(site obj.SiteID, verb string, survivalPPM, garbagePPM, sampleWords uint64) {
	if r == nil {
		return
	}
	r.adapt = append(r.adapt, AdaptDecision{
		Seq:         r.seq,
		Site:        site,
		Verb:        verb,
		SurvivalPPM: survivalPPM,
		GarbagePPM:  garbagePPM,
		SampleWords: sampleWords,
		Break:       r.meter.Snapshot(),
	})
}

// CountAdaptSamples adds n to the advisor's sample counter.
func (r *Recorder) CountAdaptSamples(n uint64) {
	if r == nil {
		return
	}
	r.adaptSamples += n
	r.adaptSampled = true
}

// Finish seals the trace with the run's final meter totals, its per-site
// counters in ascending site id, and its count of mutator returns through
// marker stubs. Call once, after the workload completes; emitting after
// Finish panics.
func (r *Recorder) Finish(sites []SiteCounters, stubReturns uint64) {
	if r == nil {
		return
	}
	if r.gcOpen || r.phaseOpen {
		panic("trace: Finish with an open span")
	}
	r.finished = true
	r.final = r.meter.Snapshot()
	r.finalOverlap = r.meter.Overlap()
	r.sites = sites
	r.stubReturns = stubReturns
}

// Data freezes the recorder into the sink-independent run model the
// writers consume. Sites are those Finish took, sorted by id. Metrics are
// a view of the frozen run (see metricsView), sorted by name.
func (r *Recorder) Data(label string) *RunData {
	if r == nil {
		return nil
	}
	final, overlap := r.finalMeter()
	d := &RunData{
		Label:   label,
		Events:  r.events,
		Final:   final,
		Overlap: overlap,
		Sites:   r.sites,
		Adapt:   r.adapt,
		Heap:    r.heap,
		Reqs:    r.reqs,
	}
	d.Metrics = metricsView(d.Summarize(), r.adapt, r.stubReturns, r.adaptSamples, r.adaptSampled)
	return d
}

// VerifyReconciled checks the acceptance invariant: per-phase cycle deltas
// must tile the run's collector time exactly — their sum equals both the
// sum of the collection-span deltas and the final meter's GC total. A
// violation means a collector charged GC cycles outside a phase span (or
// emitted spans that overlap), and the trace's breakdown cannot be
// trusted.
func (r *Recorder) VerifyReconciled() error {
	if r == nil {
		return nil
	}
	final, overlap := r.finalMeter()
	return (&RunData{Events: r.events, Final: final, Overlap: overlap}).Reconcile()
}

// finalMeter returns the run's final meter totals and overlap: those
// Finish sealed, or the meter's current ones before Finish.
func (r *Recorder) finalMeter() (costmodel.Breakdown, costmodel.Cycles) {
	if r.finished {
		return r.final, r.finalOverlap
	}
	return r.meter.Snapshot(), r.meter.Overlap()
}

// RunData is one run's frozen trace: events in emission order, the final
// meter breakdown, sorted per-site counters, name-sorted metrics, and
// — when the producing run opted in — the advisor's decisions, footprint
// samples, and request spans, each in emission order.
type RunData struct {
	Label  string
	Events []Event
	Final  costmodel.Breakdown
	// Overlap is the total collector cycles hidden by parallel workers
	// (costmodel.Meter.Overlap at the end of the run): Final counts wall
	// time, Final.Total()+Overlap is the honest sum-of-workers cost.
	// Always zero for single-worker runs, keeping their streams
	// byte-identical to pre-parallel builds.
	Overlap costmodel.Cycles
	Sites   []SiteCounters
	Metrics []Metric
	Adapt   []AdaptDecision
	Heap    []HeapSample
	Reqs    []RequestSpan
}

// Reconcile verifies the phase/meter tiling invariant on frozen data (see
// Recorder.VerifyReconciled), including the parallel-worker invariants:
// a phase_end carrying per-worker tallies must have a wall-clock GC delta
// of exactly max(workers), and the sum over all such phases of the cycles
// hidden behind the critical path (sum-max) must equal the run's Overlap.
func (d *RunData) Reconcile() error {
	var phaseGC, spanGC, workerOverlap costmodel.Cycles
	var open [4]costmodel.Breakdown // stack depth 2: gc span + phase span
	for _, e := range d.Events {
		switch e.Kind {
		case EvGCBegin:
			open[0] = e.Break
		case EvGCEnd:
			spanGC += e.Break.GC() - open[0].GC()
		case EvPhaseBegin:
			open[1] = e.Break
		case EvPhaseEnd:
			delta := e.Break.GC() - open[1].GC()
			phaseGC += delta
			if len(e.Workers) > 0 {
				var sum, max uint64
				for _, w := range e.Workers {
					sum += w
					if w > max {
						max = w
					}
				}
				if costmodel.Cycles(max) != delta {
					return fmt.Errorf("trace: collection %d %v: max worker cycles %d != phase GC delta %d",
						e.Seq, e.Phase, max, delta)
				}
				workerOverlap += costmodel.Cycles(sum - max)
			}
		}
	}
	if phaseGC != spanGC {
		return fmt.Errorf("trace: phase GC cycles %d != collection-span GC cycles %d", phaseGC, spanGC)
	}
	if spanGC != d.Final.GC() {
		return fmt.Errorf("trace: collection-span GC cycles %d != final meter GC cycles %d", spanGC, d.Final.GC())
	}
	if workerOverlap != d.Overlap {
		return fmt.Errorf("trace: per-phase worker overlap %d != run overlap %d", workerOverlap, d.Overlap)
	}
	return nil
}
