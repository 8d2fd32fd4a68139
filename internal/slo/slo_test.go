package slo

import (
	"bytes"
	"strings"
	"testing"

	"tilgc/internal/costmodel"
	"tilgc/internal/trace"
)

// synthRun builds a reconciling RunData whose collections occupy the
// given [start, end) intervals on the total-cycle timeline of a T-cycle
// run. Pause cost is charged to GCCopy inside a single copy phase, client
// cycles fill the gaps, so Summarize/Reconcile accept it.
func synthRun(t uint64, pauses [][2]uint64) *trace.RunData {
	d := &trace.RunData{Label: "synth"}
	var mass uint64
	for i, p := range pauses {
		s, e := p[0], p[1]
		begin := costmodel.Breakdown{Client: costmodel.Cycles(s - mass), GCCopy: costmodel.Cycles(mass)}
		mass += e - s
		end := costmodel.Breakdown{Client: begin.Client, GCCopy: costmodel.Cycles(mass)}
		seq := uint64(i + 1)
		cc := trace.GCCounters{}
		d.Events = append(d.Events,
			trace.Event{Kind: trace.EvGCBegin, Seq: seq, Break: begin},
			trace.Event{Kind: trace.EvPhaseBegin, Seq: seq, Phase: trace.PhaseCopy, Break: begin},
			trace.Event{Kind: trace.EvPhaseEnd, Seq: seq, Phase: trace.PhaseCopy, Break: end},
			trace.Event{Kind: trace.EvGCEnd, Seq: seq, Break: end, Counters: &cc},
		)
	}
	d.Final = costmodel.Breakdown{Client: costmodel.Cycles(t - mass), GCCopy: costmodel.Cycles(mass)}
	return d
}

// TestPercentileEdgeCases pins the nearest-rank definition on the empty,
// singleton, and tied inputs the SLO tables must not misreport.
func TestPercentileEdgeCases(t *testing.T) {
	if _, ok := trace.Percentile(nil, 500000); ok {
		t.Fatal("empty input reported a percentile")
	}
	one := []uint64{42}
	for _, ppm := range []uint64{0, 1, 500000, 999000, 1000000} {
		if v, ok := trace.Percentile(one, ppm); !ok || v != 42 {
			t.Fatalf("singleton percentile %d: got %d, %v", ppm, v, ok)
		}
	}
	// Ties: the nearest-rank value is an element, and runs of equal values
	// absorb the percentiles whose ranks land inside the run.
	ties := []uint64{1, 5, 5, 5, 9}
	cases := map[uint64]uint64{0: 1, 200000: 1, 200001: 5, 600000: 5, 800000: 5, 800001: 9, 1000000: 9}
	for ppm, want := range cases {
		if v, _ := trace.Percentile(ties, ppm); v != want {
			t.Errorf("percentile %d of %v: got %d, want %d", ppm, ties, v, want)
		}
	}
	// p50 of an even run is the lower middle (rank ceil(n/2)).
	if v, _ := trace.Percentile([]uint64{1, 2, 3, 4}, 500000); v != 2 {
		t.Errorf("p50 of 1..4: got %d, want 2", v)
	}
}

// TestMMUHandOracle pins the sweep math on a run small enough to verify
// by hand: T=100 with one 10-cycle pause at [10,20).
func TestMMUHandOracle(t *testing.T) {
	d := synthRun(100, [][2]uint64{{10, 20}})
	rr, err := Compute(d, []uint64{5, 20, 200})
	if err != nil {
		t.Fatal(err)
	}
	// w=5: the window fits inside the pause, so the worst window is fully
	// paused and MMU is 0.
	w5 := rr.Windows[0]
	if w5.MMUppm != 0 || w5.WorstPause != 5 {
		t.Errorf("w=5: got MMU %d ppm, worst pause %d; want 0, 5", w5.MMUppm, w5.WorstPause)
	}
	// w=20: worst windows hold the whole 10-cycle pause -> MMU 50%. The
	// mean overlap is 150/80 (10 cycles for starts 0..10, ramping to 0 by
	// start 20), so AMU = 1 - 150/1600 = 90.625%.
	w20 := rr.Windows[1]
	if w20.MMUppm != 500000 {
		t.Errorf("w=20: MMU %d ppm, want 500000", w20.MMUppm)
	}
	if w20.AMUppm != 906250 {
		t.Errorf("w=20: AMU %d ppm, want 906250", w20.AMUppm)
	}
	if w20.WorstStart != 0 || w20.WorstPause != 10 {
		t.Errorf("w=20: worst window (%d, pause %d), want (0, 10)", w20.WorstStart, w20.WorstPause)
	}
	// w=200 > T: a single whole-run placement; both curves collapse to
	// whole-run utilization 90%.
	w200 := rr.Windows[2]
	if w200.MMUppm != 900000 || w200.AMUppm != 900000 {
		t.Errorf("w=200: got MMU %d / AMU %d ppm, want 900000 / 900000", w200.MMUppm, w200.AMUppm)
	}
	if w200.WorstPause != 10 {
		t.Errorf("w=200: worst pause %d, want 10 (total pause mass)", w200.WorstPause)
	}
	if rr.Pauses.Count != 1 || rr.Pauses.Max != 10 || rr.Pauses.P50 != 10 {
		t.Errorf("pause stats: %+v", rr.Pauses)
	}
}

// bruteWindow recomputes one sweep point by brute force: overlap is
// evaluated at every integer start (its breakpoints are integers, so the
// true minimum is at an integer), and the continuous mean via the exact
// trapezoid sum over unit steps.
func bruteWindow(pauses [][2]uint64, T, w uint64) (mmu, amu uint64) {
	ov := func(t uint64) uint64 {
		var m uint64
		for _, p := range pauses {
			lo, hi := max64(t, p[0]), min64(t+w, p[1])
			if hi > lo {
				m += hi - lo
			}
		}
		return m
	}
	if w >= T {
		return mulDiv(T-ov(0), 1e6, T), mulDiv(T-ov(0), 1e6, T)
	}
	maxOv := uint64(0)
	var twoI uint64
	for t := uint64(0); t <= T-w; t++ {
		o := ov(t)
		if o > maxOv {
			maxOv = o
		}
		if t < T-w {
			twoI += o + ov(t+1)
		}
	}
	twoD := 2 * (T - w) * w
	return mulDiv(w-maxOv, 1e6, w), mulDiv(twoD-twoI, 1e6, twoD)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TestMMUAgainstBruteForce cross-checks the closed-form sweep against the
// brute-force evaluation on several pause layouts, including degenerate
// windows (larger than the run, smaller than the shortest pause,
// exactly the run length).
func TestMMUAgainstBruteForce(t *testing.T) {
	layouts := [][][2]uint64{
		{},
		{{10, 20}},
		{{0, 7}},                                // pause at the very start
		{{93, 100}},                             // pause at the very end
		{{5, 10}, {40, 60}, {61, 62}},           // clustered + isolated
		{{0, 3}, {20, 23}, {40, 43}, {97, 100}}, // periodic-ish
	}
	windows := []uint64{1, 2, 5, 13, 20, 50, 99, 100, 101, 250}
	for li, pauses := range layouts {
		d := synthRun(100, pauses)
		rr, err := Compute(d, windows)
		if err != nil {
			t.Fatal(err)
		}
		for wi, w := range windows {
			wantMMU, wantAMU := bruteWindow(pauses, 100, w)
			got := rr.Windows[wi]
			if got.MMUppm != wantMMU {
				t.Errorf("layout %d w=%d: MMU %d ppm, brute force says %d", li, w, got.MMUppm, wantMMU)
			}
			if got.AMUppm != wantAMU {
				t.Errorf("layout %d w=%d: AMU %d ppm, brute force says %d", li, w, got.AMUppm, wantAMU)
			}
			if got.MMUppm > got.AMUppm {
				t.Errorf("layout %d w=%d: MMU %d above AMU %d", li, w, got.MMUppm, got.AMUppm)
			}
		}
	}
}

// TestComputeDegenerate covers the empty run: no collections, zero-length
// timeline.
func TestComputeDegenerate(t *testing.T) {
	rr, err := Compute(&trace.RunData{Label: "empty"}, []uint64{10})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Pauses.Count != 0 || rr.Pauses.Max != 0 {
		t.Errorf("empty run pause stats: %+v", rr.Pauses)
	}
	if rr.Windows[0].MMUppm != 1e6 || rr.Windows[0].AMUppm != 1e6 {
		t.Errorf("empty run utilization: %+v", rr.Windows[0])
	}
	if _, err := Compute(&trace.RunData{}, nil); err == nil {
		t.Error("empty window sweep accepted")
	}
	if _, err := Compute(&trace.RunData{}, []uint64{5, 5}); err == nil {
		t.Error("non-ascending window sweep accepted")
	}
	if _, err := Compute(&trace.RunData{}, []uint64{0, 5}); err == nil {
		t.Error("zero window accepted")
	}
}

// TestRequestAttribution checks the request-latency stats, including the
// pause-inside-request attribution read off the span breakdowns.
func TestRequestAttribution(t *testing.T) {
	d := synthRun(1000, [][2]uint64{{100, 200}})
	bd := func(client, gc uint64) costmodel.Breakdown {
		return costmodel.Breakdown{Client: costmodel.Cycles(client), GCCopy: costmodel.Cycles(gc)}
	}
	d.Reqs = []trace.RequestSpan{
		{ID: 0, Begin: bd(10, 0), End: bd(50, 0)},       // latency 40, no GC
		{ID: 1, Begin: bd(90, 0), End: bd(110, 100)},    // latency 120, the full pause inside
		{ID: 2, Begin: bd(300, 100), End: bd(340, 100)}, // latency 40, no GC
	}
	rr, err := Compute(d, []uint64{100})
	if err != nil {
		t.Fatal(err)
	}
	q := rr.Requests
	if q == nil {
		t.Fatal("no request stats")
	}
	if q.Count != 3 || q.Max != 120 || q.P50 != 40 || q.P999 != 120 {
		t.Errorf("request stats: %+v", *q)
	}
	if q.GC != 100 || q.GCHit != 1 {
		t.Errorf("attribution: %d cycles across %d requests, want 100 across 1", q.GC, q.GCHit)
	}
	// A batch run reports no request section at all.
	if rr2, _ := Compute(synthRun(1000, nil), []uint64{100}); rr2.Requests != nil {
		t.Error("batch run grew a request section")
	}
}

// TestReportRoundTrip: write -> read -> write is byte-identical, the read
// report validates, and corrupted streams are rejected.
func TestReportRoundTrip(t *testing.T) {
	d := synthRun(1000, [][2]uint64{{100, 200}, {500, 530}})
	d.Reqs = []trace.RequestSpan{{ID: 7,
		Begin: costmodel.Breakdown{Client: 50},
		End:   costmodel.Breakdown{Client: 120, GCCopy: 30}}}
	rr, err := Compute(d, DefaultWindows)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(DefaultWindows, rr)
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	if err := rep.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := back.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("read -> write is not byte-identical")
	}

	for name, mangle := range map[string]func(*Report){
		"bad schema":       func(r *Report) { r.Schema = 99 },
		"descending sweep": func(r *Report) { r.Windows = []uint64{10, 5} },
		"mmu above amu":    func(r *Report) { r.Runs[0].Windows[0].MMUppm = r.Runs[0].Windows[0].AMUppm + 1 },
		"ppm above 1e6":    func(r *Report) { r.Runs[0].Windows[0].AMUppm = 1e6 + 1 },
		"percentile order": func(r *Report) { r.Runs[0].Pauses.P50 = r.Runs[0].Pauses.Max + 1 },
		"gc above total":   func(r *Report) { r.Runs[0].GC = r.Runs[0].Total + 1 },
		"gc hits above n":  func(r *Report) { r.Runs[0].Requests.GCHit = r.Runs[0].Requests.Count + 1 },
	} {
		broken, err := ReadJSONL(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		mangle(broken)
		if err := broken.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}

	if _, err := ReadJSONL(bytes.NewReader([]byte(`{"t":"slo_run","run":0}`))); err == nil {
		t.Error("run record before header accepted")
	}
	if _, err := ReadJSONL(bytes.NewReader([]byte("{\"t\":\"slo_header\",\"schema\":1,\"clock_hz\":1,\"windows\":[1],\"runs\":0}\n{\"t\":\"bogus\",\"run\":0}\n"))); err == nil {
		t.Error("unknown record type accepted")
	}

	// Declared counts and singletons: cut, drop or repeat lines of the
	// valid stream a (header, slo_run, slo_pauses, windows, slo_requests).
	lines := strings.SplitAfter(a.String(), "\n")
	pauses, requests := lines[2], lines[len(lines)-2]
	if !strings.Contains(pauses, `"slo_pauses"`) || !strings.Contains(requests, `"slo_requests"`) {
		t.Fatalf("unexpected report layout:\n%s", a.String())
	}
	for name, in := range map[string]string{
		"run count":          strings.Replace(a.String(), `"runs":1`, `"runs":2`, 1),
		"missing pauses":     strings.Replace(a.String(), pauses, "", 1),
		"duplicate pauses":   strings.Replace(a.String(), pauses, pauses+pauses, 1),
		"duplicate requests": a.String() + requests,
		// The strict reader rejects what encoding/json let through.
		"duplicate key": strings.Replace(a.String(), pauses, strings.Replace(pauses, `"run":0,`, `"run":1,"run":0,`, 1), 1),
		"folded key":    strings.Replace(a.String(), pauses, strings.Replace(pauses, `"p50"`, `"P50"`, 1), 1),
		"folded tag":    strings.Replace(a.String(), pauses, strings.Replace(pauses, `{"t":`, `{"T":`, 1), 1),
		"null integer":  strings.Replace(a.String(), pauses, strings.Replace(pauses, `"run":0,`, `"run":null,`, 1), 1),
	} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
