package trace

import (
	"fmt"
	"io"

	"tilgc/internal/costmodel"
	"tilgc/internal/jsonl"
	"tilgc/internal/obj"
)

// JSONL sink: one record per line, schema-versioned, over internal/jsonl.
// Each record type below declares its fields once, in wire order, in its
// Fields method; that one declaration writes the record and reads it
// back, and its keys are the struct's json tags. Record kinds, in stream
// order:
//
//	{"t":"header","schema":1,"clock_hz":150000000,"runs":N}
//	{"t":"run","run":i,"label":"Life/gen+markers k=2"}       per run, then:
//	{"t":"gc_begin","run":i,"seq":s,"major":false,"at":C,"client":..,"stack":..,"copy":..}
//	{"t":"phase_begin","run":i,"seq":s,"phase":"roots",...}
//	{"t":"phase_end",...}
//	{"t":"gc_end","run":i,"seq":s,...,"counters":{...}}
//	{"t":"run_end","run":i,"client":..,"stack":..,"copy":..}
//	{"t":"adapt","run":i,"seq":s,"site":..,"verb":"promote",...}  adaptive runs only
//	{"t":"heap","run":i,"seq":s,...,"spaces":[{"name":..,"live":..,"committed":..}]}
//	                                                         heap-sampled runs only
//	{"t":"req","run":i,"id":..,"b_client":..,...,"e_client":..,...}
//	                                                         request workloads only
//	{"t":"site","run":i,"site":..,"name":..,...}             sorted by site id
//	{"t":"metric","run":i,"name":..,"kind":..,...}           sorted by name
//
// All cycle quantities are integers of simulated cycles; "at" is always
// client+stack+copy+adapt at the event ("adapt" is omitted when zero, i.e.
// on every non-adaptive run — those streams are byte-identical to pre-§9
// builds). The stream contains no floats, no wall-clock quantities, and no
// map-ordered output, so it is byte-identical across runs and harness
// parallelism levels.

type recHeader struct {
	T       string `json:"t"`
	Schema  int    `json:"schema"`
	ClockHz uint64 `json:"clock_hz"`
	Runs    int    `json:"runs"`
}

func (r *recHeader) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("schema", &r.Schema)
	c.Uint("clock_hz", &r.ClockHz)
	c.Int("runs", &r.Runs)
}

type recRun struct {
	T     string `json:"t"`
	Run   int    `json:"run"`
	Label string `json:"label"`
}

func (r *recRun) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	c.Str("label", &r.Label)
}

// wireMeter is a meter breakdown on the wire. Records embed it (or
// wireStamp), so its fields flatten in place at the embedding position.
type wireMeter struct {
	Client uint64 `json:"client"`
	Stack  uint64 `json:"stack"`
	Copy   uint64 `json:"copy"`
	Adapt  uint64 `json:"adapt,omitempty"`
}

func (m *wireMeter) fields(c *jsonl.Codec) {
	c.Uint("client", &m.Client)
	c.Uint("stack", &m.Stack)
	c.Uint("copy", &m.Copy)
	c.UintOmit("adapt", &m.Adapt)
}

// wireStamp is a timestamped breakdown: "at" is the breakdown's total.
type wireStamp struct {
	At uint64 `json:"at"`
	wireMeter
}

func (s *wireStamp) fields(c *jsonl.Codec) {
	c.Uint("at", &s.At)
	s.wireMeter.fields(c)
}

func meterOf(b costmodel.Breakdown) wireMeter {
	return wireMeter{Client: uint64(b.Client), Stack: uint64(b.GCStack),
		Copy: uint64(b.GCCopy), Adapt: uint64(b.Adapt)}
}

func stampOf(b costmodel.Breakdown) wireStamp {
	return wireStamp{At: uint64(b.Total()), wireMeter: meterOf(b)}
}

func (m wireMeter) breakdown() costmodel.Breakdown {
	return costmodel.Breakdown{Client: costmodel.Cycles(m.Client), GCStack: costmodel.Cycles(m.Stack),
		GCCopy: costmodel.Cycles(m.Copy), Adapt: costmodel.Cycles(m.Adapt)}
}

// check returns the stamp's breakdown, or an error if "at" is not its total.
func (s wireStamp) check() (costmodel.Breakdown, error) {
	b := s.breakdown()
	if costmodel.Cycles(s.At) != b.Total() {
		return b, fmt.Errorf("at %d != client+stack+copy+adapt %d", s.At, b.Total())
	}
	return b, nil
}

type recEvent struct {
	T     string `json:"t"`
	Run   int    `json:"run"`
	Seq   uint64 `json:"seq"`
	Major *bool  `json:"major,omitempty"`
	Phase string `json:"phase,omitempty"`
	wireStamp
	// Workers appears on phase_end records of parallel collection phases
	// only (W > 1), so single-worker streams — including the golden
	// fixture — are byte-identical to pre-parallel builds.
	Workers  []uint64    `json:"workers,omitempty"`
	Counters *GCCounters `json:"counters,omitempty"`
}

func (r *recEvent) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	c.Uint("seq", &r.Seq)
	c.BoolPtr("major", &r.Major)
	c.StrOmit("phase", &r.Phase)
	r.wireStamp.fields(c)
	c.UintsOmit("workers", &r.Workers)
	jsonl.Object(c, "counters", &r.Counters, (*GCCounters).fields)
}

func (g *GCCounters) fields(c *jsonl.Codec) {
	c.Uint("majors", &g.Majors)
	c.Uint("frames_decoded", &g.FramesDecoded)
	c.Uint("frames_reused", &g.FramesReused)
	c.Uint("markers_placed", &g.MarkersPlaced)
	c.Uint("roots_found", &g.RootsFound)
	c.Uint("bytes_copied", &g.BytesCopied)
	c.Uint("bytes_scanned", &g.BytesScanned)
	c.Uint("objects_copied", &g.ObjectsCopied)
	c.Uint("ssb_processed", &g.SSBProcessed)
	c.Uint("los_swept", &g.LOSSwept)
	c.Uint("pretenured", &g.Pretenured)
	c.UintOmit("objects_marked", &g.ObjectsMarked)
	c.UintOmit("words_marked", &g.WordsMarked)
	c.UintOmit("words_swept", &g.WordsSwept)
	c.UintOmit("words_slid", &g.WordsSlid)
}

type recRunEnd struct {
	T   string `json:"t"`
	Run int    `json:"run"`
	wireMeter
	// Overlap is the run's hidden parallel-worker cycles (see
	// RunData.Overlap); omitted when zero, i.e. on every single-worker run.
	Overlap uint64 `json:"overlap,omitempty"`
}

func (r *recRunEnd) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	r.wireMeter.fields(c)
	c.UintOmit("overlap", &r.Overlap)
}

// recAdapt is one advisor decision. It appears only in adaptive runs'
// streams (after run_end, before site records), so non-adaptive traces —
// including the golden fixture — are byte-identical to pre-§9 builds
// without a schema bump; readers reject it only via the unknown-record
// check, which schema 1 readers predating §9 would do by design.
type recAdapt struct {
	T           string `json:"t"`
	Run         int    `json:"run"`
	Seq         uint64 `json:"seq"`
	Site        uint16 `json:"site"`
	Verb        string `json:"verb"`
	SurvivalPPM uint64 `json:"survival_ppm"`
	GarbagePPM  uint64 `json:"garbage_ppm"`
	SampleWords uint64 `json:"sample_words"`
	wireStamp
}

func (r *recAdapt) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	c.Uint("seq", &r.Seq)
	c.Uint16("site", &r.Site)
	c.Str("verb", &r.Verb)
	c.Uint("survival_ppm", &r.SurvivalPPM)
	c.Uint("garbage_ppm", &r.GarbagePPM)
	c.Uint("sample_words", &r.SampleWords)
	r.wireStamp.fields(c)
}

// recHeap is one end-of-collection footprint sample. Like recAdapt it is
// gated — emitted only when the producing run enabled heap sampling — so
// default streams (and the golden fixture) are byte-identical to builds
// predating it.
type recHeap struct {
	T   string `json:"t"`
	Run int    `json:"run"`
	Seq uint64 `json:"seq"`
	wireStamp
	Spaces []SpaceOcc `json:"spaces"`
}

func (r *recHeap) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	c.Uint("seq", &r.Seq)
	r.wireStamp.fields(c)
	jsonl.List(c, "spaces", &r.Spaces, (*SpaceOcc).fields)
}

func (s *SpaceOcc) fields(c *jsonl.Codec) {
	c.Str("name", &s.Name)
	c.Uint("live", &s.Live)
	c.Uint("committed", &s.Committed)
}

// recReq is one served request span: the full meter breakdown at arrival
// (b_*) and completion (e_*). Latency and the GC share inside the request
// are deltas of the two snapshots; no derived field is stored, so the
// record cannot disagree with itself.
type recReq struct {
	T       string `json:"t"`
	Run     int    `json:"run"`
	ID      uint64 `json:"id"`
	BClient uint64 `json:"b_client"`
	BStack  uint64 `json:"b_stack"`
	BCopy   uint64 `json:"b_copy"`
	BAdapt  uint64 `json:"b_adapt,omitempty"`
	EClient uint64 `json:"e_client"`
	EStack  uint64 `json:"e_stack"`
	ECopy   uint64 `json:"e_copy"`
	EAdapt  uint64 `json:"e_adapt,omitempty"`
}

func (r *recReq) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	c.Uint("id", &r.ID)
	c.Uint("b_client", &r.BClient)
	c.Uint("b_stack", &r.BStack)
	c.Uint("b_copy", &r.BCopy)
	c.UintOmit("b_adapt", &r.BAdapt)
	c.Uint("e_client", &r.EClient)
	c.Uint("e_stack", &r.EStack)
	c.Uint("e_copy", &r.ECopy)
	c.UintOmit("e_adapt", &r.EAdapt)
}

type recSite struct {
	T   string `json:"t"`
	Run int    `json:"run"`
	SiteCounters
}

func (r *recSite) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	s := &r.SiteCounters
	c.Uint16("site", (*uint16)(&s.Site))
	c.StrOmit("name", &s.Name)
	c.Uint("alloc_objects", &s.AllocObjects)
	c.Uint("alloc_words", &s.AllocWords)
	c.Uint("pretenured_objects", &s.PretenuredObjects)
	c.Uint("pretenured_words", &s.PretenuredWords)
	c.Uint("copied_words", &s.CopiedWords)
	c.Uint("tenured_words", &s.TenuredWords)
	c.Uint("died_words", &s.DiedWords)
}

type recMetric struct {
	T       string   `json:"t"`
	Run     int      `json:"run"`
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   uint64   `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Max     uint64   `json:"max,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

func (r *recMetric) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	c.Str("name", &r.Name)
	c.Str("kind", &r.Kind)
	c.UintOmit("value", &r.Value)
	c.UintOmit("count", &r.Count)
	c.UintOmit("sum", &r.Sum)
	c.UintOmit("max", &r.Max)
	c.UintsOmit("buckets", &r.Buckets)
}

// records holds one of each record, reused line to line by the reader
// and the writer so that neither allocates per record.
type records struct {
	header recHeader
	run    recRun
	event  recEvent
	major  bool // what event.Major points at while writing
	runEnd recRunEnd
	adapt  recAdapt
	heap   recHeap
	req    recReq
	site   recSite
	metric recMetric
}

// eventRecName maps event kinds to wire record names.
func eventRecName(k EventKind) string {
	switch k {
	case EvGCBegin:
		return "gc_begin"
	case EvGCEnd:
		return "gc_end"
	case EvPhaseBegin:
		return "phase_begin"
	case EvPhaseEnd:
		return "phase_end"
	}
	return "unknown"
}

// File is a parsed (or about-to-be-written) trace: a schema header plus
// one RunData per traced run.
type File struct {
	Schema  int
	ClockHz uint64
	Runs    []*RunData
}

// NewFile wraps frozen run data in a current-schema file.
func NewFile(runs ...*RunData) *File {
	return &File{Schema: SchemaVersion, ClockHz: uint64(costmodel.ClockHz), Runs: runs}
}

// WriteJSONL writes the file as schema-versioned JSONL.
func (f *File) WriteJSONL(w io.Writer) error {
	jw := jsonl.NewWriter(w)
	r := new(records)
	r.header = recHeader{T: "header", Schema: f.Schema, ClockHz: f.ClockHz, Runs: len(f.Runs)}
	jw.Write(&r.header)
	for i, d := range f.Runs {
		r.run = recRun{T: "run", Run: i, Label: d.Label}
		jw.Write(&r.run)
		for _, e := range d.Events {
			r.event = recEvent{T: eventRecName(e.Kind), Run: i, Seq: e.Seq, wireStamp: stampOf(e.Break)}
			switch e.Kind {
			case EvGCBegin:
				r.major = e.Major
				r.event.Major = &r.major
			case EvGCEnd:
				r.event.Counters = e.Counters
			case EvPhaseBegin, EvPhaseEnd:
				r.event.Phase = e.Phase.String()
				r.event.Workers = e.Workers
			}
			jw.Write(&r.event)
		}
		r.runEnd = recRunEnd{T: "run_end", Run: i, wireMeter: meterOf(d.Final), Overlap: uint64(d.Overlap)}
		jw.Write(&r.runEnd)
		for _, a := range d.Adapt {
			r.adapt = recAdapt{T: "adapt", Run: i, Seq: a.Seq, Site: uint16(a.Site), Verb: a.Verb,
				SurvivalPPM: a.SurvivalPPM, GarbagePPM: a.GarbagePPM, SampleWords: a.SampleWords,
				wireStamp: stampOf(a.Break)}
			jw.Write(&r.adapt)
		}
		for _, h := range d.Heap {
			spaces := h.Spaces
			if spaces == nil {
				spaces = []SpaceOcc{} // "spaces" is never null on the wire
			}
			r.heap = recHeap{T: "heap", Run: i, Seq: h.Seq, wireStamp: stampOf(h.Break), Spaces: spaces}
			jw.Write(&r.heap)
		}
		for _, q := range d.Reqs {
			r.req = recReq{T: "req", Run: i, ID: q.ID,
				BClient: uint64(q.Begin.Client), BStack: uint64(q.Begin.GCStack),
				BCopy: uint64(q.Begin.GCCopy), BAdapt: uint64(q.Begin.Adapt),
				EClient: uint64(q.End.Client), EStack: uint64(q.End.GCStack),
				ECopy: uint64(q.End.GCCopy), EAdapt: uint64(q.End.Adapt)}
			jw.Write(&r.req)
		}
		for _, s := range d.Sites {
			r.site = recSite{T: "site", Run: i, SiteCounters: s}
			jw.Write(&r.site)
		}
		for _, m := range d.Metrics {
			r.metric = recMetric{T: "metric", Run: i, Name: m.Name, Kind: m.Kind.String()}
			if m.Kind == KindHistogram {
				r.metric.Count, r.metric.Sum, r.metric.Max, r.metric.Buckets = m.Count, m.Sum, m.Max, m.Buckets
			} else {
				r.metric.Value = m.Value
			}
			jw.Write(&r.metric)
		}
	}
	return jw.Flush()
}

// traceFormat is the trace stream's structure; every run carries exactly
// one run_end.
var traceFormat = jsonl.Format{Pkg: "trace", Version: SchemaVersion,
	Header: "header", Parent: "run", Index: "run", Required: []string{"run_end"}}

// ReadJSONL parses a JSONL trace under the strict-record contract of
// internal/jsonl, rejecting in addition unknown record kinds, phases,
// adapt verbs and metric kinds, and breakdown-sum mismatches. Structural
// soundness beyond record shape (span pairing, monotonic timestamps,
// reconciliation) is checked by Validate.
func ReadJSONL(r io.Reader) (*File, error) {
	var fr fileReader
	if err := traceFormat.Read(r, &fr); err != nil {
		return nil, err
	}
	return fr.f, nil
}

// fileReader is the trace schema's jsonl.Handler.
type fileReader struct {
	records
	f   *File
	cur *RunData
}

func (fr *fileReader) Record(t string) jsonl.Fields {
	switch t {
	case "header":
		return &fr.header
	case "run":
		return &fr.run
	case "gc_begin", "gc_end", "phase_begin", "phase_end":
		return &fr.event
	case "run_end":
		return &fr.runEnd
	case "adapt":
		return &fr.adapt
	case "heap":
		return &fr.heap
	case "req":
		return &fr.req
	case "site":
		return &fr.site
	case "metric":
		return &fr.metric
	}
	return nil
}

func (fr *fileReader) Header(rec jsonl.Fields) (int, int, error) {
	h := rec.(*recHeader)
	fr.f = &File{Schema: h.Schema, ClockHz: h.ClockHz}
	return h.Schema, h.Runs, nil
}

func (fr *fileReader) Parent(rec jsonl.Fields) (int, error) {
	fr.cur = &RunData{Label: rec.(*recRun).Label}
	fr.f.Runs = append(fr.f.Runs, fr.cur)
	return -1, nil
}

func (fr *fileReader) Child(rec jsonl.Fields) error {
	cur := fr.cur
	switch r := rec.(type) {
	case *recEvent:
		ev, err := r.event()
		if err != nil {
			return err
		}
		cur.Events = append(cur.Events, ev)
	case *recRunEnd:
		cur.Final = r.breakdown()
		cur.Overlap = costmodel.Cycles(r.Overlap)
	case *recAdapt:
		b, err := r.check()
		if err != nil {
			return err
		}
		switch r.Verb {
		case AdaptPromote, AdaptDemote, AdaptWarm:
		default:
			return fmt.Errorf("unknown adapt verb %q", r.Verb)
		}
		cur.Adapt = append(cur.Adapt, AdaptDecision{
			Seq: r.Seq, Site: obj.SiteID(r.Site), Verb: r.Verb,
			SurvivalPPM: r.SurvivalPPM, GarbagePPM: r.GarbagePPM,
			SampleWords: r.SampleWords, Break: b,
		})
	case *recHeap:
		b, err := r.check()
		if err != nil {
			return err
		}
		cur.Heap = append(cur.Heap, HeapSample{Seq: r.Seq, Break: b, Spaces: r.Spaces})
	case *recReq:
		cur.Reqs = append(cur.Reqs, RequestSpan{ID: r.ID,
			Begin: wireMeter{Client: r.BClient, Stack: r.BStack, Copy: r.BCopy, Adapt: r.BAdapt}.breakdown(),
			End:   wireMeter{Client: r.EClient, Stack: r.EStack, Copy: r.ECopy, Adapt: r.EAdapt}.breakdown()})
	case *recSite:
		cur.Sites = append(cur.Sites, r.SiteCounters)
	case *recMetric:
		m := Metric{Name: r.Name, Value: r.Value,
			Count: r.Count, Sum: r.Sum, Max: r.Max, Buckets: r.Buckets}
		switch r.Kind {
		case "counter":
			m.Kind = KindCounter
		case "hist":
			m.Kind = KindHistogram
		default:
			return fmt.Errorf("unknown metric kind %q", r.Kind)
		}
		cur.Metrics = append(cur.Metrics, m)
	}
	return nil
}

// event converts a wire event record back to the in-memory form.
func (re *recEvent) event() (Event, error) {
	t := re.T
	b, err := re.check()
	if err != nil {
		return Event{}, err
	}
	ev := Event{Seq: re.Seq, Break: b}
	if len(re.Workers) > 0 && t != "phase_end" {
		return Event{}, fmt.Errorf("%s record carries worker tallies", t)
	}
	switch t {
	case "gc_begin":
		ev.Kind = EvGCBegin
		if re.Major == nil {
			return Event{}, fmt.Errorf("gc_begin without major field")
		}
		ev.Major = *re.Major
	case "gc_end":
		ev.Kind = EvGCEnd
		if re.Counters == nil {
			return Event{}, fmt.Errorf("gc_end without counters")
		}
		ev.Counters = re.Counters
	case "phase_begin", "phase_end":
		if t == "phase_begin" {
			ev.Kind = EvPhaseBegin
		} else {
			ev.Kind = EvPhaseEnd
			ev.Workers = re.Workers
		}
		p, ok := ParsePhase(re.Phase)
		if !ok {
			return Event{}, fmt.Errorf("unknown phase %q", re.Phase)
		}
		ev.Phase = p
	}
	return ev, nil
}

// Validate checks every run's structural invariants: spans strictly
// nested and paired, collection sequence numbers consecutive from 1,
// meter components non-decreasing event to event, the per-phase /
// per-span / final-meter cycle reconciliation, site records whose every
// allocated word died once and whose pretenured share fits inside both
// the allocated and the tenured words, and metric records equal to the
// view Recorder.Data derives from the run's other records.
func (f *File) Validate() error {
	if f.Schema != SchemaVersion {
		return fmt.Errorf("trace: schema %d, want %d", f.Schema, SchemaVersion)
	}
	for i, d := range f.Runs {
		if err := d.validate(); err != nil {
			return fmt.Errorf("run %d (%s): %w", i, d.Label, err)
		}
	}
	return nil
}

func (d *RunData) validate() error {
	var prev costmodel.Breakdown
	var seq uint64
	gcOpen, phaseOpen := false, false
	var openPhase Phase
	for i, e := range d.Events {
		if e.Break.Client < prev.Client || e.Break.GCStack < prev.GCStack ||
			e.Break.GCCopy < prev.GCCopy || e.Break.Adapt < prev.Adapt {
			return fmt.Errorf("event %d: meter snapshot went backwards", i)
		}
		prev = e.Break
		switch e.Kind {
		case EvGCBegin:
			if gcOpen {
				return fmt.Errorf("event %d: gc_begin inside an open collection", i)
			}
			if e.Seq != seq+1 {
				return fmt.Errorf("event %d: collection seq %d, want %d", i, e.Seq, seq+1)
			}
			seq = e.Seq
			gcOpen = true
		case EvGCEnd:
			if !gcOpen || phaseOpen {
				return fmt.Errorf("event %d: gc_end without open collection (or with open phase)", i)
			}
			if e.Seq != seq {
				return fmt.Errorf("event %d: gc_end seq %d, want %d", i, e.Seq, seq)
			}
			gcOpen = false
		case EvPhaseBegin:
			if !gcOpen || phaseOpen {
				return fmt.Errorf("event %d: phase_begin outside a collection or inside phase %v", i, openPhase)
			}
			phaseOpen, openPhase = true, e.Phase
		case EvPhaseEnd:
			if !phaseOpen || e.Phase != openPhase {
				return fmt.Errorf("event %d: phase_end(%v) does not match open phase", i, e.Phase)
			}
			phaseOpen = false
		}
	}
	if gcOpen || phaseOpen {
		return fmt.Errorf("trace ends with an open span")
	}
	if d.Final.Total() < prev.Total() {
		return fmt.Errorf("final meter breakdown precedes last event")
	}
	var prevHeap costmodel.Breakdown
	for i, h := range d.Heap {
		if h.Seq == 0 || h.Seq > seq {
			return fmt.Errorf("heap sample %d: collection seq %d outside 1..%d", i, h.Seq, seq)
		}
		if h.Break.Total() < prevHeap.Total() {
			return fmt.Errorf("heap sample %d: timestamp went backwards", i)
		}
		prevHeap = h.Break
		if h.Break.Total() > d.Final.Total() {
			return fmt.Errorf("heap sample %d: timestamp after final meter", i)
		}
		if len(h.Spaces) == 0 {
			return fmt.Errorf("heap sample %d: no spaces", i)
		}
		for _, sp := range h.Spaces {
			if sp.Name == "" {
				return fmt.Errorf("heap sample %d: unnamed space", i)
			}
			if sp.Live > sp.Committed {
				return fmt.Errorf("heap sample %d: space %s live %d > committed %d", i, sp.Name, sp.Live, sp.Committed)
			}
		}
	}
	var prevReq costmodel.Cycles
	for i, q := range d.Reqs {
		if q.End.Client < q.Begin.Client || q.End.GCStack < q.Begin.GCStack ||
			q.End.GCCopy < q.Begin.GCCopy || q.End.Adapt < q.Begin.Adapt {
			return fmt.Errorf("request span %d (id %d): end breakdown precedes begin", i, q.ID)
		}
		if q.Begin.Total() < prevReq {
			return fmt.Errorf("request span %d (id %d): begins before the previous span's start", i, q.ID)
		}
		prevReq = q.Begin.Total()
		if q.End.Total() > d.Final.Total() {
			return fmt.Errorf("request span %d (id %d): ends after final meter", i, q.ID)
		}
	}
	for _, s := range d.Sites {
		switch {
		case s.DiedWords != s.AllocWords:
			return fmt.Errorf("site %d: died %d words of %d allocated", s.Site, s.DiedWords, s.AllocWords)
		case s.PretenuredWords > s.AllocWords || s.PretenuredWords > s.TenuredWords:
			return fmt.Errorf("site %d: pretenured %d words, above allocated %d or tenured %d",
				s.Site, s.PretenuredWords, s.AllocWords, s.TenuredWords)
		case s.PretenuredObjects > s.AllocObjects:
			return fmt.Errorf("site %d: pretenured %d objects of %d allocated", s.Site, s.PretenuredObjects, s.AllocObjects)
		}
	}
	if err := d.Reconcile(); err != nil {
		return err
	}
	return d.checkMetrics()
}
