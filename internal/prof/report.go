package prof

import (
	"fmt"
	"io"
)

// PaperCutoffPct is the paper's old% pretenuring cutoff (§6), used by the
// offline policy, the online advisor and the Figure 2 report.
const PaperCutoffPct = 80

// minSharePct is the share of allocation or of copying a site must exceed
// to be shown: the paper shows "only entries with alloc % > 1.00 or with
// copy % > 1.00".
const minSharePct = 1.0

// ReportOptions controls Figure 2 report rendering.
type ReportOptions struct {
	// CutoffPct is the old% pretenuring cutoff summarized at the foot of
	// the report (the paper uses PaperCutoffPct).
	CutoffPct float64
	// Title heads the report (the benchmark name).
	Title string
}

// DefaultReportOptions mirrors the paper's Figure 2 settings.
func DefaultReportOptions(title string) ReportOptions {
	return ReportOptions{CutoffPct: PaperCutoffPct, Title: title}
}

// WriteReport renders the heap profile in the format of the paper's
// Figure 2: one row per significant allocation site with alloc%, alloc
// size/count, old%, average age, copied size/%, and copied/alloc ratio,
// plus the cutoff summary.
func (p *Profiler) WriteReport(w io.Writer, opts ReportOptions) {
	totalAlloc := p.TotalAllocated()
	totalCopied := p.TotalCopied()
	pct := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}

	fmt.Fprintf(w, "======================== %s ========================\n", opts.Title)
	fmt.Fprintf(w, "%6s %7s %12s %10s %7s %8s %10s %7s %12s\n",
		"site", "alloc", "alloc", "alloc", "", "avg", "copied", "copied", "copied size/")
	fmt.Fprintf(w, "%6s %7s %12s %10s %7s %8s %10s %7s %12s\n",
		"", "%", "size", "count", "% old", "age", "size", "%", "alloc size")
	fmt.Fprintln(w, "------------------------------------------------------------------------------------------")

	sites := p.Sites()
	shown := 0
	for _, s := range sites {
		allocPct := pct(s.AllocBytes, totalAlloc)
		copyPct := pct(s.CopiedBytes, totalCopied)
		// A site with deaths but no recorded allocations (its objects
		// predate profiling, or its stats were seeded from another run)
		// contributes 0% to both shares and would silently vanish under
		// the percentage filter; its garbage is exactly what the report
		// exists to surface, so it is always shown.
		deathOnly := s.AllocCount == 0 && s.Deaths > 0
		if !deathOnly && allocPct <= minSharePct && copyPct <= minSharePct {
			continue
		}
		shown++
		marker := ""
		if s.OldPct() >= opts.CutoffPct {
			marker = " <--"
		}
		fmt.Fprintf(w, "%6d %6.2f%% %12d %10d %7.2f %8.1f %10d %6.2f %11.2f%s\n",
			s.Site, allocPct, s.AllocBytes, s.AllocCount, s.OldPct(),
			s.AvgAgeKB(), s.CopiedBytes, copyPct, s.CopyRatio(), marker)
	}
	fmt.Fprintln(w, "--------------- heap profile end : short ---------------")
	fmt.Fprintf(w, "Showing only entries with alloc %% > %.2f\n", minSharePct)
	fmt.Fprintf(w, "                  or with copy %% > %.2f\n", minSharePct)
	fmt.Fprintf(w, "%d of %d entries displayed.\n", shown, len(sites))
	copiedPct, allocPct := p.CutoffSummary(opts.CutoffPct)
	fmt.Fprintf(w, "Using a (%% old) cutoff of %.0f%%,\n", opts.CutoffPct)
	fmt.Fprintf(w, "targeted sites comprise %.2f%% copied and %.2f%% allocated.\n",
		copiedPct, allocPct)
}
