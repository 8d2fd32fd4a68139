package slo

import (
	"bufio"
	"fmt"
	"io"

	"tilgc/internal/costmodel"
	"tilgc/internal/jsonl"
)

// JSONL report sink, a schema over internal/jsonl like the trace sink:
// each record type declares its fields once in its Fields method, the
// reader is strict, and read -> write is byte-identical. Record kinds, in
// stream order:
//
//	{"t":"slo_header","schema":1,"clock_hz":150000000,"windows":[...],"runs":N}
//	{"t":"slo_run","run":i,"label":..,"total":..,"gc":..,"collections":..,"majors":..}
//	{"t":"slo_pauses","run":i,"count":..,"total":..,"p50":..,"p90":..,"p99":..,"p999":..,"max":..}
//	{"t":"slo_window","run":i,"window":..,"mmu_ppm":..,"amu_ppm":..,"worst_start":..,"worst_pause":..}
//	{"t":"slo_requests","run":i,"count":..,...}   request-serving runs only
//
// All quantities are integers (cycles or ppm); the stream contains no
// floats and no wall-clock values.

type recHeader struct {
	T       string   `json:"t"`
	Schema  int      `json:"schema"`
	ClockHz uint64   `json:"clock_hz"`
	Windows []uint64 `json:"windows"`
	Runs    int      `json:"runs"`
}

func (r *recHeader) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("schema", &r.Schema)
	c.Uint("clock_hz", &r.ClockHz)
	c.Uints("windows", &r.Windows)
	c.Int("runs", &r.Runs)
}

type recRun struct {
	T           string `json:"t"`
	Run         int    `json:"run"`
	Label       string `json:"label"`
	Total       uint64 `json:"total"`
	GC          uint64 `json:"gc"`
	Collections uint64 `json:"collections"`
	Majors      uint64 `json:"majors"`
}

func (r *recRun) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	c.Str("label", &r.Label)
	c.Uint("total", &r.Total)
	c.Uint("gc", &r.GC)
	c.Uint("collections", &r.Collections)
	c.Uint("majors", &r.Majors)
}

// The stats records embed the in-memory stats types, whose tags are the
// wire names.

type recPauses struct {
	T   string `json:"t"`
	Run int    `json:"run"`
	PauseStats
}

func (r *recPauses) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	p := &r.PauseStats
	c.Uint("count", &p.Count)
	c.Uint("total", &p.Total)
	c.Uint("p50", &p.P50)
	c.Uint("p90", &p.P90)
	c.Uint("p99", &p.P99)
	c.Uint("p999", &p.P999)
	c.Uint("max", &p.Max)
}

type recWindow struct {
	T   string `json:"t"`
	Run int    `json:"run"`
	WindowStats
}

func (r *recWindow) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	w := &r.WindowStats
	c.Uint("window", &w.Window)
	c.Uint("mmu_ppm", &w.MMUppm)
	c.Uint("amu_ppm", &w.AMUppm)
	c.Uint("worst_start", &w.WorstStart)
	c.Uint("worst_pause", &w.WorstPause)
}

type recRequests struct {
	T   string `json:"t"`
	Run int    `json:"run"`
	RequestStats
}

func (r *recRequests) Fields(c *jsonl.Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	q := &r.RequestStats
	c.Uint("count", &q.Count)
	c.Uint("p50", &q.P50)
	c.Uint("p90", &q.P90)
	c.Uint("p99", &q.P99)
	c.Uint("p999", &q.P999)
	c.Uint("max", &q.Max)
	c.Uint("gc", &q.GC)
	c.Uint("gc_hit", &q.GCHit)
}

// records holds one of each record, reused line to line by the reader
// and the writer.
type records struct {
	header   recHeader
	run      recRun
	pauses   recPauses
	window   recWindow
	requests recRequests
}

// WriteJSONL writes the report as schema-versioned JSONL.
func (r *Report) WriteJSONL(w io.Writer) error {
	jw := jsonl.NewWriter(w)
	rec := new(records)
	rec.header = recHeader{T: "slo_header", Schema: r.Schema, ClockHz: r.ClockHz, Windows: r.Windows, Runs: len(r.Runs)}
	jw.Write(&rec.header)
	for i, rr := range r.Runs {
		rec.run = recRun{T: "slo_run", Run: i, Label: rr.Label,
			Total: rr.Total, GC: rr.GC, Collections: rr.Collections, Majors: rr.Majors}
		jw.Write(&rec.run)
		rec.pauses = recPauses{T: "slo_pauses", Run: i, PauseStats: rr.Pauses}
		jw.Write(&rec.pauses)
		for _, ws := range rr.Windows {
			rec.window = recWindow{T: "slo_window", Run: i, WindowStats: ws}
			jw.Write(&rec.window)
		}
		if rr.Requests != nil {
			rec.requests = recRequests{T: "slo_requests", Run: i, RequestStats: *rr.Requests}
			jw.Write(&rec.requests)
		}
	}
	return jw.Flush()
}

// reportFormat is the report stream's structure: every run carries one
// slo_pauses record and at most one slo_requests record.
var reportFormat = jsonl.Format{Pkg: "slo", Version: SchemaVersion, Header: "slo_header",
	Parent: "slo_run", Index: "run", Required: []string{"slo_pauses"}, Once: []string{"slo_requests"}}

// ReadJSONL parses a JSONL report under the strict-record contract of
// internal/jsonl.
func ReadJSONL(r io.Reader) (*Report, error) {
	var rd reportReader
	if err := reportFormat.Read(r, &rd); err != nil {
		return nil, err
	}
	return rd.rep, nil
}

// reportReader is the report schema's jsonl.Handler.
type reportReader struct {
	records
	rep *Report
	cur *RunReport
}

func (rd *reportReader) Record(t string) jsonl.Fields {
	switch t {
	case "slo_header":
		return &rd.header
	case "slo_run":
		return &rd.run
	case "slo_pauses":
		return &rd.pauses
	case "slo_window":
		return &rd.window
	case "slo_requests":
		return &rd.requests
	}
	return nil
}

func (rd *reportReader) Header(rec jsonl.Fields) (int, int, error) {
	h := rec.(*recHeader)
	rd.rep = &Report{Schema: h.Schema, ClockHz: h.ClockHz, Windows: h.Windows}
	return h.Schema, h.Runs, nil
}

func (rd *reportReader) Parent(rec jsonl.Fields) (int, error) {
	rr := rec.(*recRun)
	rd.cur = &RunReport{Label: rr.Label, Total: rr.Total, GC: rr.GC,
		Collections: rr.Collections, Majors: rr.Majors}
	rd.rep.Runs = append(rd.rep.Runs, rd.cur)
	return -1, nil
}

func (rd *reportReader) Child(rec jsonl.Fields) error {
	switch r := rec.(type) {
	case *recPauses:
		rd.cur.Pauses = r.PauseStats
	case *recWindow:
		rd.cur.Windows = append(rd.cur.Windows, r.WindowStats)
	case *recRequests:
		q := r.RequestStats
		rd.cur.Requests = &q
	}
	return nil
}

// Validate checks the report's structural invariants: current schema, a
// strictly ascending nonzero window sweep shared by every run, percentile
// monotonicity, ppm bounds, and request-stat consistency.
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("slo: schema %d, want %d", r.Schema, SchemaVersion)
	}
	if err := checkWindows(r.Windows); err != nil {
		return err
	}
	for i, rr := range r.Runs {
		if err := rr.validate(r.Windows); err != nil {
			return fmt.Errorf("run %d (%s): %w", i, rr.Label, err)
		}
	}
	return nil
}

func monotone(vals ...uint64) bool {
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			return false
		}
	}
	return true
}

func (rr *RunReport) validate(windows []uint64) error {
	if rr.GC > rr.Total {
		return fmt.Errorf("gc cycles %d exceed run total %d", rr.GC, rr.Total)
	}
	p := rr.Pauses
	if !monotone(p.P50, p.P90, p.P99, p.P999, p.Max) {
		return fmt.Errorf("pause percentiles not monotone: %+v", p)
	}
	if p.Count == 0 && (p.Total != 0 || p.Max != 0) {
		return fmt.Errorf("pause stats nonzero with zero collections")
	}
	if len(rr.Windows) != len(windows) {
		return fmt.Errorf("%d window stats, sweep has %d windows", len(rr.Windows), len(windows))
	}
	for i, ws := range rr.Windows {
		if ws.Window != windows[i] {
			return fmt.Errorf("window %d is %d cycles, sweep says %d", i, ws.Window, windows[i])
		}
		if ws.MMUppm > 1e6 || ws.AMUppm > 1e6 {
			return fmt.Errorf("window %d: utilization above 1e6 ppm", i)
		}
		if ws.MMUppm > ws.AMUppm {
			return fmt.Errorf("window %d: MMU %d ppm above AMU %d ppm", i, ws.MMUppm, ws.AMUppm)
		}
		if ws.WorstPause > ws.Window && ws.WorstPause > rr.Total {
			return fmt.Errorf("window %d: worst pause mass %d exceeds both window and run", i, ws.WorstPause)
		}
	}
	if q := rr.Requests; q != nil {
		if !monotone(q.P50, q.P90, q.P99, q.P999, q.Max) {
			return fmt.Errorf("request percentiles not monotone: %+v", *q)
		}
		if q.GCHit > q.Count {
			return fmt.Errorf("requests hit by GC (%d) exceed request count (%d)", q.GCHit, q.Count)
		}
		if q.GC > rr.GC {
			return fmt.Errorf("gc cycles inside requests (%d) exceed run gc total (%d)", q.GC, rr.GC)
		}
	}
	return nil
}

// WriteTable renders the report for humans: per run, the pause and
// request percentile lines and the utilization curve. Percentages are
// derived from the stored ppm values only at render time.
func (r *Report) WriteTable(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hz := float64(r.ClockHz)
	if hz == 0 {
		hz = costmodel.ClockHz
	}
	ms := func(c uint64) float64 { return float64(c) / hz * 1e3 }
	pct := func(ppm uint64) float64 { return float64(ppm) / 1e4 }
	for i, rr := range r.Runs {
		label := rr.Label
		if label == "" {
			label = fmt.Sprintf("run %d", i)
		}
		fmt.Fprintf(bw, "== %s ==\n", label)
		fmt.Fprintf(bw, "cycles: total=%d gc=%d (%d collections, %d major)\n",
			rr.Total, rr.GC, rr.Collections, rr.Majors)
		p := rr.Pauses
		fmt.Fprintf(bw, "pauses:   n=%-6d p50=%-10d p90=%-10d p99=%-10d p99.9=%-10d max=%d (%.4f ms)\n",
			p.Count, p.P50, p.P90, p.P99, p.P999, p.Max, ms(p.Max))
		if q := rr.Requests; q != nil {
			fmt.Fprintf(bw, "requests: n=%-6d p50=%-10d p90=%-10d p99=%-10d p99.9=%-10d max=%d (%.4f ms)\n",
				q.Count, q.P50, q.P90, q.P99, q.P999, q.Max, ms(q.Max))
			fmt.Fprintf(bw, "          gc inside requests: %d cycles across %d/%d requests\n",
				q.GC, q.GCHit, q.Count)
		}
		fmt.Fprintf(bw, "utilization:\n")
		fmt.Fprintf(bw, "  %12s %9s %9s %14s %14s\n", "window", "MMU", "AMU", "worst@", "pause-in-window")
		for _, ws := range rr.Windows {
			fmt.Fprintf(bw, "  %12d %8.2f%% %8.2f%% %14d %14d\n",
				ws.Window, pct(ws.MMUppm), pct(ws.AMUppm), ws.WorstStart, ws.WorstPause)
		}
		if i < len(r.Runs)-1 {
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}
