package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"tilgc/internal/costmodel"
)

// Summary rendering shared by `gctrace summary` and `gcbench -metrics`:
// per-run phase breakdowns, marker hit rates, pause statistics, and the
// per-site tenure table, all computed from frozen RunData.

// PhaseTotals accumulates one phase's cycle deltas across all collections
// of a run.
type PhaseTotals struct {
	Phase  Phase
	Count  uint64
	Client costmodel.Cycles
	Stack  costmodel.Cycles
	Copy   costmodel.Cycles
}

// Total returns the phase's total cycles across all meter components.
func (p PhaseTotals) Total() costmodel.Cycles { return p.Client + p.Stack + p.Copy }

// Pause is one collection's pause: its sequence number, GC-component
// cycle cost, and whether it was (or escalated to) a major collection.
type Pause struct {
	Seq    uint64
	Cycles costmodel.Cycles
	Major  bool
}

// RunSummary is the derived per-run view the summary writer prints.
type RunSummary struct {
	Label  string
	GCs    uint64
	Majors uint64
	Phases []PhaseTotals // only phases that occurred, declaration order
	Pauses []Pause       // in collection order

	FramesDecoded uint64 // marker misses: full trace-table decodes
	FramesReused  uint64 // marker hits: cached frame scans reused
	MarkersPlaced uint64
	BytesCopied   uint64
	Pretenured    uint64

	Final costmodel.Breakdown
	// ReconcileErr is nil when per-phase GC cycles tile the collection
	// spans and the final meter exactly.
	ReconcileErr error
}

// MarkerHitRate returns reused/(reused+decoded), the fraction of stack
// frames whose scan was avoided by a marker, or 0 with ok=false when no
// frames were walked.
func (s *RunSummary) MarkerHitRate() (float64, bool) {
	total := s.FramesReused + s.FramesDecoded
	if total == 0 {
		return 0, false
	}
	return float64(s.FramesReused) / float64(total), true
}

// Summarize derives the per-run summary from frozen run data.
func (d *RunData) Summarize() *RunSummary {
	s := &RunSummary{Label: d.Label, Final: d.Final, ReconcileErr: d.Reconcile()}
	var phases [numPhases]PhaseTotals
	var gcBegin, phaseBegin costmodel.Breakdown
	openMajor := false
	for _, e := range d.Events {
		switch e.Kind {
		case EvGCBegin:
			gcBegin = e.Break
			openMajor = e.Major
		case EvGCEnd:
			s.GCs++
			if e.Counters != nil {
				c := e.Counters
				if c.Majors > 0 {
					openMajor = true
				}
				s.Majors += c.Majors
				s.FramesDecoded += c.FramesDecoded
				s.FramesReused += c.FramesReused
				s.MarkersPlaced += c.MarkersPlaced
				s.BytesCopied += c.BytesCopied
				s.Pretenured += c.Pretenured
			}
			s.Pauses = append(s.Pauses, Pause{Seq: e.Seq, Cycles: e.Break.GC() - gcBegin.GC(), Major: openMajor})
		case EvPhaseBegin:
			phaseBegin = e.Break
		case EvPhaseEnd:
			p := &phases[e.Phase]
			p.Phase = e.Phase
			p.Count++
			p.Client += e.Break.Client - phaseBegin.Client
			p.Stack += e.Break.GCStack - phaseBegin.GCStack
			p.Copy += e.Break.GCCopy - phaseBegin.GCCopy
		}
	}
	for i := range phases {
		if phases[i].Count > 0 {
			s.Phases = append(s.Phases, phases[i])
		}
	}
	return s
}

// Percentile returns the exact nearest-rank percentile of sorted
// (ascending) values: the element of 1-based rank ceil(ppm*n/1e6),
// clamped to [1, n]. ppm is the percentile in parts per million
// (p99.9 = 999000), keeping the computation integer-only so results are
// byte-identical across platforms. ok is false for empty input.
//
// Unlike the log2-bucket histogram quantile, which can only bound a
// percentile by its bucket's upper edge, this is the exact recorded value
// — the difference the SLO layer exists to expose.
func Percentile(sorted []uint64, ppm uint64) (v uint64, ok bool) {
	n := uint64(len(sorted))
	if n == 0 {
		return 0, false
	}
	rank := (ppm*n + 1e6 - 1) / 1e6
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], true
}

// PauseCycles returns the run's per-collection pause costs (GC-component
// cycles) sorted ascending — the input Percentile expects.
func (s *RunSummary) PauseCycles() []uint64 {
	out := make([]uint64, len(s.Pauses))
	for i, p := range s.Pauses {
		out[i] = uint64(p.Cycles)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TopPauses returns the n longest pauses, longest first; ties break toward
// the earlier collection so the ordering is total.
func (s *RunSummary) TopPauses(n int) []Pause {
	out := make([]Pause, len(s.Pauses))
	copy(out, s.Pauses)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Seq < out[j].Seq
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// WriteSummary renders a human-readable digest of every run in the file:
// collection counts, per-phase cycle breakdown, marker hit rate, the
// pause histogram with top pauses, the per-site tenure table, and the
// phase/meter reconciliation verdict.
func (f *File) WriteSummary(w io.Writer, topPauses int) error {
	bw := bufio.NewWriter(w)
	hz := float64(f.ClockHz)
	if hz == 0 {
		hz = costmodel.ClockHz
	}
	ms := func(c costmodel.Cycles) float64 { return float64(c) / hz * 1e3 }
	for i, d := range f.Runs {
		s := d.Summarize()
		label := s.Label
		if label == "" {
			label = fmt.Sprintf("run %d", i)
		}
		fmt.Fprintf(bw, "== %s ==\n", label)
		fmt.Fprintf(bw, "collections: %d (%d major)\n", s.GCs, s.Majors)
		fmt.Fprintf(bw, "cycles: client=%d gc-stack=%d gc-copy=%d total=%d (%.3f ms simulated)\n",
			s.Final.Client, s.Final.GCStack, s.Final.GCCopy, s.Final.Total(), ms(s.Final.Total()))
		if s.ReconcileErr != nil {
			fmt.Fprintf(bw, "RECONCILE FAILED: %v\n", s.ReconcileErr)
		} else {
			fmt.Fprintf(bw, "reconcile: ok (phase cycles tile gc spans and meter GC total %d)\n", s.Final.GC())
		}

		if len(s.Phases) > 0 {
			fmt.Fprintf(bw, "\nphase breakdown (cycles):\n")
			fmt.Fprintf(bw, "  %-12s %8s %14s %14s %14s %9s\n", "phase", "spans", "gc-stack", "gc-copy", "total", "% of GC")
			gcTotal := s.Final.GC()
			for _, p := range s.Phases {
				pct := 0.0
				if gcTotal > 0 {
					pct = float64(p.Stack+p.Copy) / float64(gcTotal) * 100
				}
				fmt.Fprintf(bw, "  %-12s %8d %14d %14d %14d %8.2f%%\n",
					p.Phase, p.Count, p.Stack, p.Copy, p.Total(), pct)
			}
		}

		if rate, ok := s.MarkerHitRate(); ok {
			fmt.Fprintf(bw, "\nstack markers: hit rate %.2f%% (%d frames reused, %d decoded, %d markers placed)\n",
				rate*100, s.FramesReused, s.FramesDecoded, s.MarkersPlaced)
		}

		writePauses(bw, s, d, topPauses, ms)
		writeSites(bw, d)
		if i < len(f.Runs)-1 {
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// WriteMetrics renders every run's metrics as a compact table: one row
// per metric, counters by value, histograms by count/sum/max/mean.
// Output is deterministic (metrics are name-sorted; no wall-clock
// quantities appear).
func (f *File) WriteMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, d := range f.Runs {
		label := d.Label
		if label == "" {
			label = fmt.Sprintf("run %d", i)
		}
		fmt.Fprintf(bw, "== metrics: %s ==\n", label)
		for j := range d.Metrics {
			m := &d.Metrics[j]
			switch m.Kind {
			case KindHistogram:
				fmt.Fprintf(bw, "  %-22s %-8s count=%d sum=%d max=%d mean=%.1f\n",
					m.Name, m.Kind, m.Count, m.Sum, m.Max, m.Mean())
			default:
				fmt.Fprintf(bw, "  %-22s %-8s %d\n", m.Name, m.Kind, m.Value)
			}
		}
		if i < len(f.Runs)-1 {
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

func writePauses(bw *bufio.Writer, s *RunSummary, d *RunData, topPauses int, ms func(costmodel.Cycles) float64) {
	var hist *Metric
	for j := range d.Metrics {
		if d.Metrics[j].Name == MetricPauseCycles && d.Metrics[j].Kind == KindHistogram {
			hist = &d.Metrics[j]
		}
	}
	if len(s.Pauses) > 0 {
		// Exact nearest-rank percentiles from the per-collection Pause
		// records — not the log2-bucket upper bounds the histogram gives.
		pc := s.PauseCycles()
		p50, _ := Percentile(pc, 500000)
		p90, _ := Percentile(pc, 900000)
		p99, _ := Percentile(pc, 990000)
		p999, _ := Percentile(pc, 999000)
		fmt.Fprintf(bw, "\npause percentiles (cycles, exact): p50=%d p90=%d p99=%d p99.9=%d max=%d\n",
			p50, p90, p99, p999, pc[len(pc)-1])
	}
	if hist != nil && hist.Count > 0 {
		fmt.Fprintf(bw, "pause histogram (cycles, log2 buckets): n=%d mean=%.0f max=%d p90<=%d\n",
			hist.Count, hist.Mean(), hist.Max, hist.Quantile(900000))
		for b, n := range hist.Buckets {
			if n == 0 {
				continue
			}
			lo := uint64(0)
			if b > 0 {
				lo = 1 << (b - 1)
			}
			fmt.Fprintf(bw, "  [%12d, %12d): %d\n", lo, uint64(1)<<b, n)
		}
	}
	if topPauses > 0 && len(s.Pauses) > 0 {
		fmt.Fprintf(bw, "\ntop pauses:\n")
		for _, p := range s.TopPauses(topPauses) {
			kind := "minor"
			if p.Major {
				kind = "major"
			}
			fmt.Fprintf(bw, "  gc #%-4d %-5s %12d cycles (%.4f ms)\n", p.Seq, kind, p.Cycles, ms(p.Cycles))
		}
	}
}

func writeSites(bw *bufio.Writer, d *RunData) {
	if len(d.Sites) == 0 {
		return
	}
	fmt.Fprintf(bw, "\nper-site telemetry (words):\n")
	fmt.Fprintf(bw, "  %-4s %-22s %10s %10s %10s %10s %10s\n",
		"site", "name", "alloc", "pretenured", "copied", "tenured", "died")
	for _, sc := range d.Sites {
		name := sc.Name
		if len(name) > 22 {
			name = name[:19] + "..."
		}
		fmt.Fprintf(bw, "  %-4d %-22s %10d %10d %10d %10d %10d\n",
			sc.Site, name, sc.AllocWords, sc.PretenuredWords, sc.CopiedWords, sc.TenuredWords, sc.DiedWords)
	}
}
