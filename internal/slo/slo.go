// Package slo is the deterministic latency-analytics layer: it turns a
// run's frozen trace (internal/trace RunData) into the numbers a latency
// SLO is written against — exact pause percentiles, minimum- and
// average-mutator-utilization curves over a sweep of window sizes,
// max-pause-density windows, and request-latency percentiles for
// workloads that serve requests.
//
// Everything here is a pure function of the trace stream, computed in
// integer arithmetic on the simulated-cycle timeline (ratios are held as
// parts per million, and the one computation whose intermediates exceed
// 64 bits — the AMU integral — runs in math/big). No floats enter any
// stored quantity, so a report is byte-identical across runs, machines,
// and harness parallelism levels, like the trace it was computed from.
//
// Timeline conventions: a collection's interval on the run timeline is
// [gc_begin.Total(), gc_end.Total()] — everything the mutator could not
// run during. Pause *percentiles* use the GC-component cycles of each
// collection (the collector's own work, matching the trace layer's Pause
// records); utilization *curves* use the total-timeline intervals, since
// utilization asks "what fraction of this wall window did the mutator
// own". A request's latency is End.Total()-Begin.Total() of its span, and
// the GC share inside it is End.GC()-Begin.GC() — the attribution rule:
// whatever collector work the meter accumulated between arrival and
// completion landed inside that request.
package slo

import (
	"fmt"
	"math/big"
	"math/bits"
	"sort"

	"tilgc/internal/costmodel"
	"tilgc/internal/trace"
)

// SchemaVersion is the SLO-report format version. Bump when record shapes
// or metric definitions change incompatibly.
const SchemaVersion = 1

// DefaultWindows is the standard MMU window sweep, in simulated cycles.
var DefaultWindows = []uint64{1_000, 10_000, 100_000, 1_000_000}

// Report is a schema-versioned SLO report: one RunReport per traced run,
// all computed over the same window sweep.
type Report struct {
	Schema  int
	ClockHz uint64
	Windows []uint64
	Runs    []*RunReport
}

// NewReport wraps run reports computed with windows in a current-schema
// report.
func NewReport(windows []uint64, runs ...*RunReport) *Report {
	return &Report{Schema: SchemaVersion, ClockHz: uint64(costmodel.ClockHz), Windows: windows, Runs: runs}
}

// RunReport is one run's SLO view.
type RunReport struct {
	Label       string
	Total       uint64 // run length in simulated cycles (final meter total)
	GC          uint64 // collector cycles (final meter GC total)
	Collections uint64
	Majors      uint64
	Pauses      PauseStats
	Windows     []WindowStats
	// Requests is nil when the run recorded no request spans (batch
	// workloads); server workloads always produce it.
	Requests *RequestStats
}

// PauseStats are exact nearest-rank percentiles over the run's
// per-collection pause costs (GC-component cycles).
type PauseStats struct {
	Count uint64 `json:"count"`
	Total uint64 `json:"total"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
	Max   uint64 `json:"max"`
}

// WindowStats is one point on the utilization curves: for sliding windows
// of Window cycles, the minimum (MMU) and average (AMU) fraction of the
// window the mutator owned, in parts per million, plus the
// max-pause-density window realizing the minimum — where an SLO would
// have been violated hardest.
type WindowStats struct {
	Window     uint64 `json:"window"`
	MMUppm     uint64 `json:"mmu_ppm"`
	AMUppm     uint64 `json:"amu_ppm"`
	WorstStart uint64 `json:"worst_start"` // start cycle of the worst window
	WorstPause uint64 `json:"worst_pause"` // pause cycles inside the worst window
}

// RequestStats are exact nearest-rank percentiles over request latencies,
// plus the pause attribution: how many collector cycles landed inside
// requests, and how many requests absorbed at least one.
type RequestStats struct {
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
	Max   uint64 `json:"max"`
	GC    uint64 `json:"gc"`     // collector cycles that landed inside requests
	GCHit uint64 `json:"gc_hit"` // requests with at least one collector cycle inside
}

// interval is one collection's span on the total-cycle timeline.
type interval struct{ s, e uint64 }

// Compute derives a run's SLO report from its frozen trace. windows must
// be ascending, unique, and nonzero.
func Compute(d *trace.RunData, windows []uint64) (*RunReport, error) {
	if err := checkWindows(windows); err != nil {
		return nil, err
	}
	s := d.Summarize()
	if s.ReconcileErr != nil {
		return nil, fmt.Errorf("slo: trace does not reconcile: %w", s.ReconcileErr)
	}
	r := &RunReport{
		Label:       d.Label,
		Total:       uint64(d.Final.Total()),
		GC:          uint64(d.Final.GC()),
		Collections: s.GCs,
		Majors:      s.Majors,
	}

	pc := s.PauseCycles()
	r.Pauses.Count = uint64(len(pc))
	for _, c := range pc {
		r.Pauses.Total += c
	}
	r.Pauses.P50, _ = trace.Percentile(pc, 500000)
	r.Pauses.P90, _ = trace.Percentile(pc, 900000)
	r.Pauses.P99, _ = trace.Percentile(pc, 990000)
	r.Pauses.P999, _ = trace.Percentile(pc, 999000)
	if n := len(pc); n > 0 {
		r.Pauses.Max = pc[n-1]
	}

	iv := pauseIntervals(d)
	for _, w := range windows {
		r.Windows = append(r.Windows, utilizationWindow(iv, r.Total, w))
	}

	if len(d.Reqs) > 0 {
		rs := &RequestStats{Count: uint64(len(d.Reqs))}
		lat := make([]uint64, len(d.Reqs))
		for i, q := range d.Reqs {
			lat[i] = uint64(q.Latency())
			gc := uint64(q.GCCycles())
			rs.GC += gc
			if gc > 0 {
				rs.GCHit++
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rs.P50, _ = trace.Percentile(lat, 500000)
		rs.P90, _ = trace.Percentile(lat, 900000)
		rs.P99, _ = trace.Percentile(lat, 990000)
		rs.P999, _ = trace.Percentile(lat, 999000)
		rs.Max = lat[len(lat)-1]
		r.Requests = rs
	}
	return r, nil
}

// ComputeFile derives the SLO report for every run of a trace file.
func ComputeFile(f *trace.File, windows []uint64) (*Report, error) {
	rep := NewReport(windows)
	for i, d := range f.Runs {
		rr, err := Compute(d, windows)
		if err != nil {
			return nil, fmt.Errorf("run %d (%s): %w", i, d.Label, err)
		}
		rep.Runs = append(rep.Runs, rr)
	}
	return rep, nil
}

func checkWindows(windows []uint64) error {
	if len(windows) == 0 {
		return fmt.Errorf("slo: empty window sweep")
	}
	for i, w := range windows {
		if w == 0 {
			return fmt.Errorf("slo: window %d is zero", i)
		}
		if i > 0 && windows[i-1] >= w {
			return fmt.Errorf("slo: windows not strictly ascending at %d", i)
		}
	}
	return nil
}

// pauseIntervals extracts the collection spans on the total-cycle
// timeline. Collection spans never overlap and events are in emission
// order, so the result is sorted and disjoint.
func pauseIntervals(d *trace.RunData) []interval {
	var iv []interval
	var begin uint64
	for _, e := range d.Events {
		switch e.Kind {
		case trace.EvGCBegin:
			begin = uint64(e.At())
		case trace.EvGCEnd:
			iv = append(iv, interval{s: begin, e: uint64(e.At())})
		}
	}
	return iv
}

// utilizationWindow computes one sweep point: MMU, AMU, and the worst
// window for sliding windows of w cycles over a run of T cycles with the
// given pause intervals.
//
// MMU: the minimum over all placements t in [0, T-w] of
// (w - pause mass in [t, t+w]) / w. The overlap function is piecewise
// linear in t with slope changes only where a window edge crosses a pause
// boundary, so its maximum is attained with an edge aligned to a
// boundary; evaluating the aligned candidates (clamped into range) is
// exact, not an approximation.
//
// AMU: the mean over the same placements, from the closed form
// integral(overlap) = sum over pauses of integral over x in [s,e) of
// m(x), where m(x) = min(x, w, T-w, T-x) is the measure of windows
// covering cycle x. m simplifies to min(min(x, T-x), c) with
// c = min(w, T-w), and its antiderivative is piecewise quadratic —
// evaluated exactly in math/big since the squares overflow 64 bits.
//
// Degeneracies: w >= T means a single whole-run placement, so MMU = AMU =
// whole-run utilization; T == 0 reports full utilization.
func utilizationWindow(iv []interval, T, w uint64) WindowStats {
	ws := WindowStats{Window: w}
	if T == 0 {
		ws.MMUppm, ws.AMUppm = 1e6, 1e6
		return ws
	}
	var totalPause uint64
	for _, p := range iv {
		totalPause += p.e - p.s
	}
	if w >= T {
		// One placement: the whole run.
		util := mulDiv(T-totalPause, 1e6, T)
		ws.MMUppm, ws.AMUppm = util, util
		ws.WorstStart, ws.WorstPause = 0, totalPause
		return ws
	}

	// Prefix pause mass: cum[i] = mass of intervals 0..i-1.
	cum := make([]uint64, len(iv)+1)
	for i, p := range iv {
		cum[i+1] = cum[i] + (p.e - p.s)
	}
	// mass(t) = pause mass in [0, t].
	mass := func(t uint64) uint64 {
		// First interval whose end reaches past t.
		i := sort.Search(len(iv), func(i int) bool { return iv[i].e >= t })
		m := cum[i]
		if i < len(iv) && iv[i].s < t {
			m += t - iv[i].s
		}
		return m
	}

	// Candidate starts: window left edge at a pause start, or right edge
	// at a pause end, clamped into [0, T-w].
	cand := make([]uint64, 0, 2*len(iv)+1)
	cand = append(cand, 0)
	for _, p := range iv {
		if p.s <= T-w {
			cand = append(cand, p.s)
		} else {
			cand = append(cand, T-w)
		}
		if p.e >= w {
			cand = append(cand, p.e-w)
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
	var maxOv, worstStart uint64
	for i, t := range cand {
		if i > 0 && t == cand[i-1] {
			continue
		}
		if ov := mass(t+w) - mass(t); ov > maxOv {
			maxOv, worstStart = ov, t
		}
	}
	ws.MMUppm = mulDiv(w-maxOv, 1e6, w)
	ws.WorstStart, ws.WorstPause = worstStart, maxOv

	// AMU: 2*integral(overlap) summed exactly, then
	// AMU = (D - I) / D with D = (T-w)*w.
	c := w // min(w, T-w); w < T here
	if T-w < c {
		c = T - w
	}
	twoI := new(big.Int)
	for _, p := range iv {
		twoI.Add(twoI, new(big.Int).Sub(twoF(p.e, T, c), twoF(p.s, T, c)))
	}
	twoD := new(big.Int).Mul(new(big.Int).SetUint64(T-w), new(big.Int).SetUint64(w))
	twoD.Lsh(twoD, 1)
	num := new(big.Int).Sub(twoD, twoI)
	num.Mul(num, big.NewInt(1e6))
	num.Quo(num, twoD)
	ws.AMUppm = num.Uint64()
	return ws
}

// twoF returns twice the antiderivative of m(t) = min(min(t, T-t), c)
// evaluated at x, exactly: 2F(x) = x^2 for x <= c; c^2 + 2c(x-c) on the
// plateau; and c^2 + 2c(T-2c) + c^2 - (T-x)^2 on the falling ramp.
func twoF(x, T, c uint64) *big.Int {
	bx := new(big.Int).SetUint64(x)
	bc := new(big.Int).SetUint64(c)
	switch {
	case x <= c:
		return bx.Mul(bx, bx)
	case x <= T-c:
		out := new(big.Int).Mul(bc, bc)
		ramp := new(big.Int).SetUint64(x - c)
		ramp.Mul(ramp, bc).Lsh(ramp, 1)
		return out.Add(out, ramp)
	default:
		out := new(big.Int).Mul(bc, bc)
		plateau := new(big.Int).SetUint64(T - 2*c)
		plateau.Mul(plateau, bc).Lsh(plateau, 1)
		out.Add(out, plateau)
		out.Add(out, new(big.Int).Mul(bc, bc))
		tail := new(big.Int).SetUint64(T - x)
		tail.Mul(tail, tail)
		return out.Sub(out, tail)
	}
}

// mulDiv returns a*b/c with a 128-bit intermediate. Callers guarantee the
// quotient fits in 64 bits (here a <= c, so the quotient is at most b).
func mulDiv(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	q, _ := bits.Div64(hi, lo, c)
	return q
}
