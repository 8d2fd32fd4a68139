package trace

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"tilgc/internal/costmodel"
)

// TestNilRecorderIsSafe: every Recorder method must be callable on a nil
// receiver — instrumentation sites call unconditionally.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.BeginGC(false)
	r.BeginPhase(PhaseRoots)
	r.EndPhase(PhaseRoots)
	r.EndGC(GCCounters{})
	r.Finish([]SiteCounters{{Site: 1, AllocObjects: 1, AllocWords: 8, DiedWords: 8}}, 1)
	if r.Data("x") != nil {
		t.Error("nil recorder returned non-nil run data")
	}
	if err := r.VerifyReconciled(); err != nil {
		t.Error(err)
	}
}

// TestRecorderSpanGuards: structurally invalid span emissions panic — a
// collector bug must fail loudly, not produce an unreconcilable trace.
func TestRecorderSpanGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	m := costmodel.NewMeter()
	r := NewRecorder(m)
	mustPanic("EndGC before BeginGC", func() { r.EndGC(GCCounters{}) })
	mustPanic("BeginPhase outside GC", func() { r.BeginPhase(PhaseRoots) })
	r.BeginGC(false)
	mustPanic("nested BeginGC", func() { r.BeginGC(true) })
	r.BeginPhase(PhaseRoots)
	mustPanic("nested BeginPhase", func() { r.BeginPhase(PhaseCopy) })
	mustPanic("EndGC with open phase", func() { r.EndGC(GCCounters{}) })
	mustPanic("Finish with open span", func() { r.Finish(nil, 0) })
	r.EndPhase(PhaseRoots)
	r.EndGC(GCCounters{})
	r.Finish(nil, 0)
}

// TestRecorderPauseHistogram: GC spans feed the pause histogram with the
// GC-component delta, not wall anything.
func TestRecorderPauseHistogram(t *testing.T) {
	m := costmodel.NewMeter()
	r := NewRecorder(m)
	m.ChargeN(costmodel.Client, 1, 100) // client time does not count as pause
	r.BeginGC(false)
	r.BeginPhase(PhaseCopy)
	m.ChargeN(costmodel.GCCopy, 1, 1000)
	r.EndPhase(PhaseCopy)
	r.EndGC(GCCounters{})
	r.Finish(nil, 0)
	var h *Metric
	for _, m := range r.Data("").Metrics {
		if m.Name == MetricPauseCycles {
			h = &m
		}
	}
	if h == nil {
		t.Fatal("pause histogram missing")
	}
	if h.Count != 1 || h.Sum != 1000 || h.Max != 1000 {
		t.Errorf("pause histogram = count %d sum %d max %d, want 1/1000/1000", h.Count, h.Sum, h.Max)
	}
	if err := r.VerifyReconciled(); err != nil {
		t.Error(err)
	}
}

// TestReconcileDetectsLeaks: a GC charge outside any phase breaks the
// tiling invariant and must be reported.
func TestReconcileDetectsLeaks(t *testing.T) {
	m := costmodel.NewMeter()
	r := NewRecorder(m)
	r.BeginGC(false)
	m.ChargeN(costmodel.GCCopy, 1, 50) // inside the GC span but outside any phase
	r.BeginPhase(PhaseCopy)
	m.ChargeN(costmodel.GCCopy, 1, 10)
	r.EndPhase(PhaseCopy)
	r.EndGC(GCCounters{})
	r.Finish(nil, 0)
	if err := r.VerifyReconciled(); err == nil {
		t.Error("phase-untiled GC charge went undetected")
	}

	m2 := costmodel.NewMeter()
	r2 := NewRecorder(m2)
	m2.ChargeN(costmodel.GCStack, 1, 7) // GC charge outside any collection span
	r2.Finish(nil, 0)
	if err := r2.VerifyReconciled(); err == nil {
		t.Error("span-untiled GC charge went undetected")
	}
}

// TestHistogramBuckets: log2 bucketing puts v in bucket bits.Len64(v).
func TestHistogramBuckets(t *testing.T) {
	var m Metric
	m.Kind = KindHistogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		m.Observe(v)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1}
	for b, n := range want {
		if b >= len(m.Buckets) || m.Buckets[b] != n {
			t.Errorf("bucket %d = %d, want %d", b, bucketAt(&m, b), n)
		}
	}
	if m.Count != 9 || m.Max != 1024 {
		t.Errorf("count %d max %d, want 9/1024", m.Count, m.Max)
	}
	if q := m.Quantile(1e6); q < m.Max {
		t.Errorf("p100 upper bound %d below max %d", q, m.Max)
	}

	// Nearest rank, as Percentile: p90 of 15 samples is the 14th, which
	// is 600 here, so the bound is its bucket's upper edge, 1024.
	var p Metric
	samples := []uint64{600, 700}
	for range 13 {
		samples = append(samples, 20)
	}
	for _, v := range samples {
		p.Observe(v)
	}
	slices.Sort(samples)
	exact, _ := Percentile(samples, 900000)
	if q := p.Quantile(900000); q < exact || q != 1024 {
		t.Errorf("p90 bound %d, want 1024 (exact p90 %d)", q, exact)
	}
}

func bucketAt(m *Metric, b int) uint64 {
	if b < len(m.Buckets) {
		return m.Buckets[b]
	}
	return 0
}

// TestPhaseNames: wire names parse back to themselves and unknown names
// are rejected.
func TestPhaseNames(t *testing.T) {
	for _, p := range Phases() {
		q, ok := ParsePhase(p.String())
		if !ok || q != p {
			t.Errorf("phase %d round-trips to %d (ok=%v)", p, q, ok)
		}
	}
	if _, ok := ParsePhase("warble"); ok {
		t.Error("unknown phase name parsed")
	}
	if Phase(200).String() != "unknown" {
		t.Error("out-of-range phase has a wire name")
	}
}

// TestReadJSONLRejects: the strict reader refuses malformed streams.
func TestReadJSONLRejects(t *testing.T) {
	const runEnd = "{\"t\":\"run_end\",\"run\":0,\"client\":1,\"stack\":0,\"copy\":0}\n"
	cases := map[string]string{
		"empty":          "",
		"no header":      `{"t":"run","run":0,"label":"x"}`,
		"bad schema":     `{"t":"header","schema":99,"clock_hz":1,"runs":0}`,
		"unknown field":  `{"t":"header","schema":1,"clock_hz":1,"runs":0,"zz":1}`,
		"unknown record": "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":0}\n{\"t\":\"wat\"}",
		"run order":      "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":1}\n{\"t\":\"run\",\"run\":3,\"label\":\"x\"}",
		"at mismatch": "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":1}\n" +
			"{\"t\":\"run\",\"run\":0,\"label\":\"x\"}\n" +
			"{\"t\":\"gc_begin\",\"run\":0,\"seq\":1,\"major\":false,\"at\":5,\"client\":1,\"stack\":0,\"copy\":0}",
		"truncated": "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":3}\n" +
			"{\"t\":\"run\",\"run\":0,\"label\":\"x\"}\n" + runEnd,
		"extra run": "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":0}\n" +
			"{\"t\":\"run\",\"run\":0,\"label\":\"x\"}\n" + runEnd,
		"no run_end": "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":2}\n" +
			"{\"t\":\"run\",\"run\":0,\"label\":\"x\"}\n" +
			"{\"t\":\"run\",\"run\":1,\"label\":\"y\"}\n" + strings.Replace(runEnd, `"run":0`, `"run":1`, 1),
		"last run_end missing": "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":1}\n" +
			"{\"t\":\"run\",\"run\":0,\"label\":\"x\"}\n",
		"duplicate run_end": "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":1}\n" +
			"{\"t\":\"run\",\"run\":0,\"label\":\"x\"}\n" + runEnd + runEnd,
		// The strict reader rejects what encoding/json let through.
		"duplicate key": withRunEnd(`{"t":"run_end","run":0,"client":5,"client":7,"stack":0,"copy":0}`),
		"folded key":    withRunEnd(`{"t":"run_end","run":0,"CLIENT":1,"stack":0,"copy":0}`),
		"folded tag":    withRunEnd(`{"T":"run_end","run":0,"client":1,"stack":0,"copy":0}`),
		"null integer":  withRunEnd(`{"t":"run_end","run":0,"client":null,"stack":0,"copy":0}`),
		"tag not first": withRunEnd(`{"run":0,"t":"run_end","client":1,"stack":0,"copy":0}`),
		"escaped key":   withRunEnd(`{"t":"run_end","run":0,"\u0063lient":1,"stack":0,"copy":0}`),
		// No writer emits a gauge, so the reader knows no such kind.
		"gauge metric": "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":1}\n" +
			"{\"t\":\"run\",\"run\":0,\"label\":\"x\"}\n" +
			"{\"t\":\"metric\",\"run\":0,\"name\":\"x\",\"kind\":\"gauge\",\"value\":1}\n" + runEnd,
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// withRunEnd returns a one-run trace whose run_end record is line.
func withRunEnd(line string) string {
	return "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":1}\n" +
		"{\"t\":\"run\",\"run\":0,\"label\":\"x\"}\n" + line + "\n"
}

// TestReadJSONLLineOverflow: a line over the reader's cap is reported
// with the package prefix and its line number.
func TestReadJSONLLineOverflow(t *testing.T) {
	in := "{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":1}\n" +
		"{\"t\":\"run\",\"run\":0,\"label\":\"" + strings.Repeat("x", 16<<20) + "\"}\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil || !strings.HasPrefix(err.Error(), "trace: line 2: ") {
		t.Fatalf("overlong line: got %v, want a \"trace: line 2: \" error", err)
	}
}

// TestValidateCatchesBrokenSpans: structurally broken event streams fail
// Validate even when each line parses.
func TestValidateCatchesBrokenSpans(t *testing.T) {
	open := &RunData{Events: []Event{{Kind: EvGCBegin, Seq: 1}}}
	if err := NewFile(open).Validate(); err == nil {
		t.Error("unclosed collection span validated")
	}
	badSeq := &RunData{Events: []Event{
		{Kind: EvGCBegin, Seq: 2},
		{Kind: EvGCEnd, Seq: 2, Counters: &GCCounters{}},
	}}
	if err := NewFile(badSeq).Validate(); err == nil {
		t.Error("non-consecutive collection seq validated")
	}
	backwards := &RunData{Events: []Event{
		{Kind: EvGCBegin, Seq: 1, Break: costmodel.Breakdown{Client: 10}},
		{Kind: EvGCEnd, Seq: 1, Counters: &GCCounters{}, Break: costmodel.Breakdown{Client: 5}},
	}}
	if err := NewFile(backwards).Validate(); err == nil {
		t.Error("backwards meter snapshot validated")
	}
}

// TestValidateChecksMetrics: metric records are a view of the run's
// other records, so Validate rejects a run whose metrics disagree with
// its events or its advisor decisions.
func TestValidateChecksMetrics(t *testing.T) {
	golden, err := os.ReadFile("../harness/testdata/trace_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	read := func(in string) *File {
		t.Helper()
		f, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if err := read(string(golden)).Validate(); err != nil {
		t.Fatalf("golden trace: %v", err)
	}
	for name, edit := range map[string][2]string{
		"gc.count 3 to 4":    {`"name":"gc.count","kind":"counter","value":3}`, `"name":"gc.count","kind":"counter","value":4}`},
		"pause bucket moved": {`"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,3]}`, `"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,1,2]}`},
	} {
		in := strings.Replace(string(golden), edit[0], edit[1], 1)
		if in == string(golden) {
			t.Fatalf("%s: edit does not apply to the golden trace", name)
		}
		if err := read(in).Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}

	m := costmodel.NewMeter()
	r := NewRecorder(m)
	r.AdaptDecision(1, AdaptWarm, 0, 0, 0)
	r.BeginGC(false)
	r.BeginPhase(PhaseCopy)
	m.ChargeN(costmodel.GCCopy, 1, 100)
	r.EndPhase(PhaseCopy)
	r.EndGC(GCCounters{})
	r.CountAdaptSamples(64)
	r.AdaptDecision(2, AdaptPromote, 900000, 0, 64)
	r.AdaptDecision(1, AdaptDemote, 0, 600000, 64)
	r.Finish(nil, 0)
	if err := NewFile(r.Data("adapt")).Validate(); err != nil {
		t.Fatalf("recorded adaptive run: %v", err)
	}
	for name, edit := range map[string]func(d *RunData){
		"adapt.promotions off by one": func(d *RunData) { d.Metrics[1].Value++ },
		"adapt records dropped":       func(d *RunData) { d.Metrics = d.Metrics[3:] },
		"decision dropped":            func(d *RunData) { d.Adapt = d.Adapt[1:] },
	} {
		d := r.Data("adapt")
		if d.Metrics[1].Name != MetricAdaptPromotions || d.Metrics[1].Value != 2 {
			t.Fatalf("metric 1 = %+v, want adapt.promotions 2 (warm and promote)", d.Metrics[1])
		}
		edit(d)
		if err := NewFile(d).Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestValidateChecksSites: every allocated word dies once by the end of a
// run, and the pretenured share fits inside both the allocated and the
// tenured counts, so Validate rejects a site record that breaks either.
func TestValidateChecksSites(t *testing.T) {
	golden, err := os.ReadFile("../harness/testdata/trace_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	const site = `"alloc_objects":41,"alloc_words":164,"pretenured_objects":0,"pretenured_words":0,"copied_words":52,"tenured_words":52,"died_words":164}`
	for name, edit := range map[string]string{
		"died_words below alloc_words":           `"alloc_objects":41,"alloc_words":164,"pretenured_objects":0,"pretenured_words":0,"copied_words":52,"tenured_words":52,"died_words":160}`,
		"pretenured_words above tenured_words":   `"alloc_objects":41,"alloc_words":164,"pretenured_objects":1,"pretenured_words":60,"copied_words":52,"tenured_words":52,"died_words":164}`,
		"pretenured_words above alloc_words":     `"alloc_objects":41,"alloc_words":164,"pretenured_objects":1,"pretenured_words":200,"copied_words":52,"tenured_words":252,"died_words":164}`,
		"pretenured_objects above alloc_objects": `"alloc_objects":41,"alloc_words":164,"pretenured_objects":42,"pretenured_words":4,"copied_words":52,"tenured_words":56,"died_words":164}`,
	} {
		in := strings.Replace(string(golden), site, edit, 1)
		if in == string(golden) {
			t.Fatalf("%s: edit does not apply to the golden trace", name)
		}
		f, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "site 700") {
			t.Errorf("%s: got %v, want a site 700 error", name, err)
		}
	}
}

// TestWriteChromeEmpty: an empty file still renders a loadable document.
func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFile().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("empty chrome trace lacks traceEvents")
	}
}
