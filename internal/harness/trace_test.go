package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"tilgc/internal/trace"
)

// traceFile assembles the per-run recorders of a RunAll batch (in input
// order) into one trace file, the way cmd/gcbench does.
func traceFile(t *testing.T, results []*RunResult) *trace.File {
	t.Helper()
	runs := make([]*trace.RunData, len(results))
	for i, r := range results {
		if r.Trace == nil {
			t.Fatalf("run %d has no trace recorder", i)
		}
		runs[i] = r.Trace.Data(r.Config.Label())
	}
	return trace.NewFile(runs...)
}

// tracedConfigs is detConfigs with a recorder attached to every run.
func tracedConfigs() []RunConfig {
	cfgs := detConfigs()
	for i := range cfgs {
		cfgs[i].Trace = true
	}
	return cfgs
}

// renderBoth serializes a file to both sink formats.
func renderBoth(t *testing.T, f *trace.File) (jsonl, chrome []byte) {
	t.Helper()
	var jb, cb bytes.Buffer
	if err := f.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteChrome(&cb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestTraceDoesNotPerturbMeasurements: a traced run must measure exactly
// what the untraced run measures — tracing charges nothing to the meter.
func TestTraceDoesNotPerturbMeasurements(t *testing.T) {
	for _, cfg := range detConfigs() {
		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = true
		traced, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Check != traced.Check || plain.Times != traced.Times || plain.Stats != traced.Stats {
			t.Errorf("%s: traced run measured differently from untraced:\nplain:  %+v\ntraced: %+v",
				cfg.Label(), plain.Times, traced.Times)
		}
	}
}

// TestTraceReconcilesAndValidates: every traced config produces a
// structurally sound trace whose per-phase GC cycles tile the collection
// spans and the final meter exactly, and whose per-GC counters sum to the
// run's end-of-run stats.
func TestTraceReconcilesAndValidates(t *testing.T) {
	for _, cfg := range detConfigs() {
		cfg.Trace = true
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := r.Trace.Data(cfg.Label())
		if len(d.Events) == 0 {
			t.Fatalf("%s: traced run recorded no events (GCs=%d)", cfg.Label(), r.Stats.NumGC)
		}
		f := trace.NewFile(d)
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Label(), err)
		}
		s := d.Summarize()
		if s.GCs != r.Stats.NumGC {
			t.Errorf("%s: trace saw %d collections, stats say %d", cfg.Label(), s.GCs, r.Stats.NumGC)
		}
		if s.Majors != r.Stats.NumMajor {
			t.Errorf("%s: trace saw %d majors, stats say %d", cfg.Label(), s.Majors, r.Stats.NumMajor)
		}
		if s.FramesDecoded != r.Stats.FramesDecoded || s.FramesReused != r.Stats.FramesReused {
			t.Errorf("%s: trace frame counters %d/%d, stats %d/%d", cfg.Label(),
				s.FramesDecoded, s.FramesReused, r.Stats.FramesDecoded, r.Stats.FramesReused)
		}
		if s.Final.Total() != r.Times.Total() {
			t.Errorf("%s: trace final %d cycles, meter %d", cfg.Label(), s.Final.Total(), r.Times.Total())
		}
	}
}

// TestTraceRunTwiceByteIdentical: both sink formats are byte-identical
// across two independent executions of the same batch.
func TestTraceRunTwiceByteIdentical(t *testing.T) {
	cfgs := tracedConfigs()[:3]
	opts := Options{Parallelism: 1}
	first, err := RunAll(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	j1, c1 := renderBoth(t, traceFile(t, first))
	second, err := RunAll(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	j2, c2 := renderBoth(t, traceFile(t, second))
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL trace differs between two identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("Chrome trace differs between two identical runs")
	}
}

// TestTraceParallelMatchesSerial: the assembled trace file is
// byte-identical at every parallelism level, for both formats — the
// ISSUE's parallel==serial acceptance criterion.
func TestTraceParallelMatchesSerial(t *testing.T) {
	cfgs := tracedConfigs()
	serial, err := RunAll(cfgs, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	js, cs := renderBoth(t, traceFile(t, serial))
	ClearCalibrationCache()
	parallel, err := RunAll(cfgs, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	jp, cp := renderBoth(t, traceFile(t, parallel))
	if !bytes.Equal(js, jp) {
		t.Error("JSONL trace differs between serial and parallel execution")
	}
	if !bytes.Equal(cs, cp) {
		t.Error("Chrome trace differs between serial and parallel execution")
	}
}

// TestTraceJSONLRoundTrip: parsing a written stream and re-writing it
// reproduces the original bytes, and the parsed file validates.
func TestTraceJSONLRoundTrip(t *testing.T) {
	cfg := detConfigs()[0]
	cfg.Trace = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := trace.NewFile(r.Trace.Data(cfg.Label()))
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := parsed.Validate(); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := parsed.WriteJSONL(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("JSONL round-trip is not byte-identical")
	}
}

// TestTraceChromeIsValidJSON: the Perfetto sink emits well-formed JSON
// with the traceEvents array shape.
func TestTraceChromeIsValidJSON(t *testing.T) {
	cfg := detConfigs()[0]
	cfg.Trace = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, chrome := renderBoth(t, traceFile(t, []*RunResult{r}))
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome output has no trace events")
	}
}

// TestTraceStubReturnCounter: a marker configuration that reuses frames
// must count mutator returns through marker stubs.
func TestTraceStubReturnCounter(t *testing.T) {
	cfg := RunConfig{Workload: "Life", Scale: tiny, Kind: KindGenMarkers, K: 2, Trace: true}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var m *trace.Metric
	for _, rec := range r.Trace.Data("").Metrics {
		if rec.Name == trace.MetricStubReturns {
			m = &rec
		}
	}
	if m == nil {
		t.Fatal("stub-return metric missing")
	}
	if r.Stats.MarkersPlaced > 0 && m.Value == 0 {
		t.Errorf("markers were placed (%d) but no stub returns were counted", r.Stats.MarkersPlaced)
	}
}
