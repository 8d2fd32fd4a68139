package slo

import (
	"bufio"
	"fmt"
	"io"

	"tilgc/internal/trace"
)

// Chrome counter-track sink for utilization curves: each run becomes one
// thread carrying "mmu" / "amu" counter ("C") events whose timestamp is
// the window size in cycles and whose values are the stored ppm
// integers. Loaded in Perfetto, the counter chart plots utilization
// against window size — the paper-standard MMU curve — with no floats in
// the file, so the output is byte-identical everywhere.

// WriteChromeCounters writes the report's MMU/AMU curves as Chrome
// trace-event JSON counter tracks.
func (r *Report) WriteChromeCounters(w io.Writer) error {
	cw := trace.NewChromeWriter(w, "gcsim slo")
	for tid, rr := range r.Runs {
		cw.Thread(tid, rr.Label)
		for _, ws := range rr.Windows {
			cw.Emit(trace.ChromeEvent{Name: "mmu", Ph: "C", Tid: tid, Ts: ws.Window,
				Args: map[string]any{"ppm": ws.MMUppm}})
			cw.Emit(trace.ChromeEvent{Name: "amu", Ph: "C", Tid: tid, Ts: ws.Window,
				Args: map[string]any{"ppm": ws.AMUppm}})
		}
	}
	return cw.Close()
}

// WriteMMUTable renders the utilization curves as a compact table: one
// row per run, one column per sweep window, MMU then AMU blocks.
// Percentages are derived from the stored ppm values only at render time.
func (r *Report) WriteMMUTable(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeBlock := func(title string, pick func(WindowStats) uint64) {
		fmt.Fprintln(bw, title)
		fmt.Fprintf(bw, "%-44s", "window (cycles):")
		for _, win := range r.Windows {
			fmt.Fprintf(bw, " %9d", win)
		}
		fmt.Fprintln(bw)
		for i, rr := range r.Runs {
			label := rr.Label
			if label == "" {
				label = fmt.Sprintf("run %d", i)
			}
			fmt.Fprintf(bw, "%-44s", label)
			for _, ws := range rr.Windows {
				fmt.Fprintf(bw, " %8.2f%%", float64(pick(ws))/1e4)
			}
			fmt.Fprintln(bw)
		}
	}
	writeBlock("MMU (minimum mutator utilization over any window of w cycles)",
		func(ws WindowStats) uint64 { return ws.MMUppm })
	fmt.Fprintln(bw)
	writeBlock("AMU (average mutator utilization over all windows of w cycles)",
		func(ws WindowStats) uint64 { return ws.AMUppm })
	return bw.Flush()
}
