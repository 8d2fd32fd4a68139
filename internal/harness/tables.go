package harness

import (
	"errors"
	"fmt"
	"io"

	"tilgc/internal/core"
	"tilgc/internal/mem"
	"tilgc/internal/prof"
	"tilgc/internal/slo"
	"tilgc/internal/trace"
	"tilgc/internal/workload"
)

// PaperOrder lists the benchmarks in the order the paper's tables use.
var PaperOrder = []string{
	"Checksum", "Color", "FFT", "Grobner", "Knuth-Bendix",
	"Lexgen", "Life", "Nqueen", "Peg", "PIA", "Simple",
}

// PaperKs are the memory multiples the paper sweeps.
var PaperKs = []float64{1.5, 2.0, 4.0}

// PretenureTargets are the four benchmarks the heap profiles select for
// pretenuring (§6).
var PretenureTargets = []string{"Knuth-Bendix", "Lexgen", "Nqueen", "Simple"}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n================ %s ================\n", title)
}

// Table1 renders the benchmark descriptions.
func Table1(w io.Writer) error {
	header(w, "Table 1: Benchmark programs")
	for _, name := range PaperOrder {
		wl, err := workload.Get(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-13s %s\n", wl.Name(), wl.Description())
	}
	return nil
}

// Table2 renders the allocation characteristics of the benchmarks.
func Table2(w io.Writer, scale workload.Scale, opts Options) error {
	var cfgs []RunConfig
	for _, name := range PaperOrder {
		cfgs = append(cfgs, RunConfig{Workload: name, Scale: scale, Kind: KindGenerational})
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}
	// The unconstrained runs calibrate nothing, so Max Live comes from
	// calibrations run on the same pool.
	cals := make([]*calibration, len(PaperOrder))
	errs := make([]error, len(PaperOrder))
	ParallelEach(len(PaperOrder), opts.Parallelism, func(i int) {
		cals[i], errs[i] = Calibrate(PaperOrder[i], scale, 0)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	header(w, "Table 2: Allocation characteristics of benchmarks")
	fmt.Fprintf(w, "%-13s %9s %9s %9s %9s %14s %10s %10s\n",
		"Program", "Total", "Max Live", "Records", "Arrays",
		"Max(Avg)Frames", "New Frames", "Ptr Updates")
	for i, name := range PaperOrder {
		r := rs[i]
		fmt.Fprintf(w, "%-13s %8.1fMB %8.0fKB %8.1fMB %8.1fMB %7d(%6.1f) %10.1f %10d\n",
			name,
			mb(r.Stats.BytesAllocated), kb(cals[i].maxLiveWords*8),
			mb(r.Stats.RecordBytes), mb(r.Stats.ArrayBytes),
			r.Stats.MaxDepthAtGC, r.Stats.AvgDepthAtGC(),
			r.Stats.AvgNewFrames(), r.Updates)
	}
	return nil
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
func kb(b uint64) float64 { return float64(b) / (1 << 10) }

// sweepConfigs builds the workload-major × PaperKs run matrix, so row i
// of a sweep renders from results[i*len(PaperKs) : (i+1)*len(PaperKs)].
func sweepConfigs(names []string, scale workload.Scale, kind CollectorKind) []RunConfig {
	var cfgs []RunConfig
	for _, name := range names {
		for _, k := range PaperKs {
			cfgs = append(cfgs, RunConfig{Workload: name, Scale: scale, Kind: kind, K: k})
		}
	}
	return cfgs
}

// sweepTable renders the Table 3/4 layout for a collector kind.
func sweepTable(w io.Writer, scale workload.Scale, kind CollectorKind, withDepth bool, opts Options) error {
	all, err := RunAll(sweepConfigs(PaperOrder, scale, kind), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s\n",
		"", "Total", "Total", "Total", "GC", "GC", "GC", "Client", "Client", "Client")
	fmt.Fprintf(w, "%-13s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s\n",
		"Program", "k=1.5", "k=2.0", "k=4.0", "k=1.5", "k=2.0", "k=4.0", "k=1.5", "k=2.0", "k=4.0")
	for i, name := range PaperOrder {
		rs := all[i*len(PaperKs) : (i+1)*len(PaperKs)]
		fmt.Fprintf(w, "%-13s | %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f\n",
			name,
			rs[0].Total(), rs[1].Total(), rs[2].Total(),
			rs[0].GC(), rs[1].GC(), rs[2].GC(),
			rs[0].Client(), rs[1].Client(), rs[2].Client())
	}
	fmt.Fprintln(w)
	if withDepth {
		fmt.Fprintf(w, "%-13s | %8s %8s %8s | %12s %12s %12s | %9s\n",
			"Program", "GCs@1.5", "GCs@2.0", "GCs@4.0",
			"copied@1.5", "copied@2.0", "copied@4.0", "AvgFrames")
	} else {
		fmt.Fprintf(w, "%-13s | %8s %8s %8s | %12s %12s %12s\n",
			"Program", "GCs@1.5", "GCs@2.0", "GCs@4.0",
			"copied@1.5", "copied@2.0", "copied@4.0")
	}
	for i, name := range PaperOrder {
		rs := all[i*len(PaperKs) : (i+1)*len(PaperKs)]
		if withDepth {
			fmt.Fprintf(w, "%-13s | %8d %8d %8d | %12d %12d %12d | %9.1f\n",
				name, rs[0].Stats.NumGC, rs[1].Stats.NumGC, rs[2].Stats.NumGC,
				rs[0].Stats.BytesCopied, rs[1].Stats.BytesCopied, rs[2].Stats.BytesCopied,
				rs[2].Stats.AvgDepthAtGC())
		} else {
			fmt.Fprintf(w, "%-13s | %8d %8d %8d | %12d %12d %12d\n",
				name, rs[0].Stats.NumGC, rs[1].Stats.NumGC, rs[2].Stats.NumGC,
				rs[0].Stats.BytesCopied, rs[1].Stats.BytesCopied, rs[2].Stats.BytesCopied)
		}
	}
	return nil
}

// Table3 renders the semispace collector sweep.
func Table3(w io.Writer, scale workload.Scale, opts Options) error {
	header(w, "Table 3: Time and space usage for semispace collector (pseudo-seconds)")
	return sweepTable(w, scale, KindSemispace, false, opts)
}

// Table4 renders the generational collector sweep.
func Table4(w io.Writer, scale workload.Scale, opts Options) error {
	header(w, "Table 4: Time and space usage for generational collector (pseudo-seconds)")
	return sweepTable(w, scale, KindGenerational, true, opts)
}

// Table5 renders the GC-cost breakdown without and with stack markers at
// k = 4.
func Table5(w io.Writer, scale workload.Scale, opts Options) error {
	var cfgs []RunConfig
	for _, name := range PaperOrder {
		cfgs = append(cfgs,
			RunConfig{Workload: name, Scale: scale, Kind: KindGenerational, K: 4},
			RunConfig{Workload: name, Scale: scale, Kind: KindGenMarkers, K: 4})
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}
	header(w, "Table 5: Breakdown of GC cost at k=4 without and with stack markers")
	fmt.Fprintf(w, "%-13s | %7s %7s %7s %7s | %7s %7s %7s %7s | %9s\n",
		"", "-----", "without", "markers", "-----", "-----", "with", "markers", "-----", "GC%")
	fmt.Fprintf(w, "%-13s | %7s %7s %7s %7s | %7s %7s %7s %7s | %9s\n",
		"Program", "GC", "stack", "copy", "stack%", "GC", "stack", "copy", "stack%", "decreased")
	for i, name := range PaperOrder {
		bs, ms := rs[2*i].Times, rs[2*i+1].Times
		dec := 100 * (1 - float64(ms.GC())/float64(max(bs.GC(), 1)))
		fmt.Fprintf(w, "%-13s | %7.3f %7.3f %7.3f %6.1f%% | %7.3f %7.3f %7.3f %6.1f%% | %8.1f%%\n",
			name,
			bs.GC().Seconds(), bs.GCStack.Seconds(), bs.GCCopy.Seconds(),
			100*float64(bs.GCStack)/float64(max(bs.GC(), 1)),
			ms.GC().Seconds(), ms.GCStack.Seconds(), ms.GCCopy.Seconds(),
			100*float64(ms.GCStack)/float64(max(ms.GC(), 1)),
			dec)
	}
	return nil
}

// Table6 renders the pretenuring results for the profile-selected targets.
func Table6(w io.Writer, scale workload.Scale, opts Options) error {
	// Per target: the three pretenure k-sweep runs, then the gen+markers
	// k=4 baseline the % columns compare against.
	stride := len(PaperKs) + 1
	var cfgs []RunConfig
	for _, name := range PretenureTargets {
		for _, k := range PaperKs {
			cfgs = append(cfgs, RunConfig{Workload: name, Scale: scale, Kind: KindGenMarkersPretenure, K: k})
		}
		cfgs = append(cfgs, RunConfig{Workload: name, Scale: scale, Kind: KindGenMarkers, K: 4})
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}
	header(w, "Table 6: Generational collector with stack markers and pretenuring")
	fmt.Fprintf(w, "%-13s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s | %6s %7s %6s\n",
		"Program", "Tot@1.5", "Tot@2.0", "Tot@4.0",
		"GC@1.5", "GC@2.0", "GC@4.0",
		"Cl@1.5", "Cl@2.0", "Cl@4.0", "GC%", "Client%", "Tot%")
	for i, name := range PretenureTargets {
		pre, base := rs[i*stride:i*stride+len(PaperKs)], rs[i*stride+len(PaperKs)]
		p4 := pre[2]
		gcDec := 100 * (1 - p4.GC()/maxf(base.GC(), 1e-9))
		clDec := 100 * (1 - p4.Client()/maxf(base.Client(), 1e-9))
		totDec := 100 * (1 - p4.Total()/maxf(base.Total(), 1e-9))
		fmt.Fprintf(w, "%-13s | %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f | %5.0f%% %6.0f%% %5.0f%%\n",
			name,
			pre[0].Total(), pre[1].Total(), pre[2].Total(),
			pre[0].GC(), pre[1].GC(), pre[2].GC(),
			pre[0].Client(), pre[1].Client(), pre[2].Client(),
			gcDec, clDec, totDec)
	}
	fmt.Fprintf(w, "\n%-13s | %8s %8s %8s | %12s %12s %12s | %14s\n",
		"Program", "GCs@1.5", "GCs@2.0", "GCs@4.0",
		"copied@1.5", "copied@2.0", "copied@4.0", "copied vs base")
	for i, name := range PretenureTargets {
		pre, base := rs[i*stride:i*stride+len(PaperKs)], rs[i*stride+len(PaperKs)]
		copyDec := 100 * (1 - float64(pre[2].Stats.BytesCopied)/maxf(float64(base.Stats.BytesCopied), 1))
		fmt.Fprintf(w, "%-13s | %8d %8d %8d | %12d %12d %12d | %12.0f%%↓\n",
			name, pre[0].Stats.NumGC, pre[1].Stats.NumGC, pre[2].Stats.NumGC,
			pre[0].Stats.BytesCopied, pre[1].Stats.BytesCopied, pre[2].Stats.BytesCopied,
			copyDec)
	}
	fmt.Fprintln(w, "\n(% decrease columns compare against gen+markers at k=4)")
	return nil
}

// Table7 renders the relative GC times at k = 4 across the four
// configurations, normalized to the semispace collector (the paper's bar
// chart, as text).
func Table7(w io.Writer, scale workload.Scale, opts Options) error {
	kinds := []CollectorKind{
		KindSemispace, KindGenerational, KindGenMarkers, KindGenMarkersPretenure,
	}
	var cfgs []RunConfig
	for _, name := range PaperOrder {
		for _, kind := range kinds {
			cfgs = append(cfgs, RunConfig{Workload: name, Scale: scale, Kind: kind, K: 4})
		}
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}
	header(w, "Table 7: Relative GC time at k=4.0 (semispace = 100%)")
	fmt.Fprintf(w, "%-13s %12s %12s %12s %12s\n",
		"Program", "semispace", "gen", "+markers", "+pretenure")
	for i, name := range PaperOrder {
		var gcs []float64
		for j := range kinds {
			gcs = append(gcs, rs[i*len(kinds)+j].GC())
		}
		base := maxf(gcs[0], 1e-9)
		fmt.Fprintf(w, "%-13s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
			name, 100.0, 100*gcs[1]/base, 100*gcs[2]/base, 100*gcs[3]/base)
	}
	return nil
}

// Figure2 renders the heap-profile reports for Knuth-Bendix and Nqueen
// and returns the profiled runs.
func Figure2(w io.Writer, scale workload.Scale, opts Options) ([]*RunResult, error) {
	names := []string{"Knuth-Bendix", "Nqueen"}
	var cfgs []RunConfig
	for _, name := range names {
		cfgs = append(cfgs, RunConfig{
			Workload: name, Scale: scale, Kind: KindGenerational, Profile: true,
		})
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		rs[i].Profiler.WriteReport(w, prof.DefaultReportOptions(name))
		fmt.Fprintln(w)
	}
	return rs, nil
}

// ExtensionElide renders the §7.2 scan-elision experiment: Nqueen with
// pretenuring, without and with the dataflow-driven scan elision.
func ExtensionElide(w io.Writer, scale workload.Scale, opts Options) error {
	names := []string{"Nqueen", "Knuth-Bendix"}
	var cfgs []RunConfig
	for _, name := range names {
		cfgs = append(cfgs,
			RunConfig{Workload: name, Scale: scale, Kind: KindGenMarkersPretenure, K: 4},
			RunConfig{Workload: name, Scale: scale, Kind: KindGenMarkersPretenureElide, K: 4})
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}
	header(w, "Extension (§7.2): pretenure-region scan elision on Nqueen")
	for i, name := range names {
		pre, el := rs[2*i], rs[2*i+1]
		dec := 100 * (1 - el.GC()/maxf(pre.GC(), 1e-9))
		fmt.Fprintf(w, "%-13s GC %8.3fs -> %8.3fs (%.1f%% decrease); scanned %d -> %d bytes\n",
			name, pre.GC(), el.GC(), dec, pre.Stats.BytesScanned, el.Stats.BytesScanned)
	}
	return nil
}

// ExtensionAging renders the §7.2 aging experiment: without immediate
// promotion, objects bound for the tenured generation are copied several
// times, so pretenuring saves proportionally more — the paper's
// prediction, measured.
func ExtensionAging(w io.Writer, scale workload.Scale, opts Options) error {
	kinds := []CollectorKind{
		KindGenMarkers, KindGenMarkersPretenure, KindGenAging, KindGenAgingPretenure,
	}
	var cfgs []RunConfig
	for _, name := range PretenureTargets {
		for _, kind := range kinds {
			cfgs = append(cfgs, RunConfig{Workload: name, Scale: scale, Kind: kind, K: 4})
		}
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}
	header(w, "Extension (§7.2): pretenuring under aging (non-immediate promotion)")
	fmt.Fprintf(w, "%-13s %28s %29s %14s\n",
		"", "immediate promotion", "aging (3 minors)", "benefit ratio")
	fmt.Fprintf(w, "%-13s %13s %14s %14s %14s\n",
		"Program", "copied(base)", "copied(pre)", "copied(base)", "copied(pre)")
	for i, name := range PretenureTargets {
		var copied [4]uint64
		for j := range kinds {
			copied[j] = rs[i*len(kinds)+j].Stats.BytesCopied
		}
		savedImm := int64(copied[0]) - int64(copied[1])
		savedAge := int64(copied[2]) - int64(copied[3])
		ratio := 0.0
		if savedImm > 0 {
			ratio = float64(savedAge) / float64(savedImm)
		}
		fmt.Fprintf(w, "%-13s %13d %14d %14d %14d %13.1fx\n",
			name, copied[0], copied[1], copied[2], copied[3], ratio)
	}
	return nil
}

// ExtensionBarrier renders the §4 write-barrier ablation: Peg with the
// sequential store buffer versus card marking.
func ExtensionBarrier(w io.Writer, scale workload.Scale, opts Options) error {
	names := []string{"Peg", "Life"}
	var cfgs []RunConfig
	for _, name := range names {
		cfgs = append(cfgs,
			RunConfig{Workload: name, Scale: scale, Kind: KindGenerational, K: 4},
			RunConfig{Workload: name, Scale: scale, Kind: KindGenCards, K: 4})
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}
	header(w, "Extension (§4): SSB versus card-marking write barrier")
	for i, name := range names {
		ssb, cards := rs[2*i], rs[2*i+1]
		fmt.Fprintf(w, "%-13s SSB: GC %8.3fs (%d entries processed)  cards: GC %8.3fs\n",
			name, ssb.GC(), ssb.Stats.SSBProcessed, cards.GC())
	}
	return nil
}

// MarkerSweep renders an ablation over the marker spacing n (§5 notes n
// balances reuse against bookkeeping; the paper uses n = 25).
func MarkerSweep(w io.Writer, scale workload.Scale, names []string, ns []int, opts Options) error {
	var cfgs []RunConfig
	for _, name := range names {
		for _, n := range ns {
			cfgs = append(cfgs, RunConfig{Workload: name, Scale: scale, Kind: KindGenMarkers, K: 4, MarkerN: n})
		}
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}
	header(w, "Ablation: stack-marker spacing n")
	for i, name := range names {
		fmt.Fprintf(w, "%-13s:", name)
		for j, n := range ns {
			fmt.Fprintf(w, "  n=%-3d %7.3fs", n, rs[i*len(ns)+j].GC())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// AdaptTargets pairs the long-lived benchmarks the adaptive experiment
// measures with the memory multiple each is measured at. Simple runs
// unconstrained (k = 0): under a tight budget its pretenured bumps force
// extra majors and pretenuring is a net loss, which is exactly the regime
// the §9 demotion ablation covers separately.
var AdaptTargets = []struct {
	Name string
	K    float64
}{
	{"Simple", 0},
	{"Nqueen", 4},
}

// ExperimentAdapt renders the §9 adaptive-pretenuring evaluation: copied
// bytes under no pretenuring, offline profile-driven pretenuring (trained
// at half scale, the paper's train-on-one-input methodology), an oracle
// offline policy (train == measure), and the online advisor starting cold
// and warm — then the PhaseShift mistrain ablation with and without
// demotion.
func ExperimentAdapt(w io.Writer, scale workload.Scale, opts Options) error {
	// Offline training input: the same workload at half the repetitions.
	train := scale.Canon()
	train.Repeat /= 2

	// Batch 1: everything except the warm-started runs, which need the
	// cold runs' stored profiles first.
	const perTarget = 4 // none, offline, oracle, adapt-cold
	var cfgs []RunConfig
	for _, tgt := range AdaptTargets {
		cfgs = append(cfgs,
			RunConfig{Workload: tgt.Name, Scale: scale, Kind: KindGenerational, K: tgt.K},
			RunConfig{Workload: tgt.Name, Scale: scale, Kind: KindGenPretenure, K: tgt.K, TrainScale: train},
			RunConfig{Workload: tgt.Name, Scale: scale, Kind: KindGenPretenure, K: tgt.K},
			RunConfig{Workload: tgt.Name, Scale: scale, Kind: KindGenerational, K: tgt.K, Adapt: true})
	}
	psBase := len(cfgs)
	cfgs = append(cfgs,
		RunConfig{Workload: "PhaseShift", Scale: scale, Kind: KindGenerational, K: 1.5},
		RunConfig{Workload: "PhaseShift", Scale: scale, Kind: KindGenerational, K: 1.5, Adapt: true},
		RunConfig{Workload: "PhaseShift", Scale: scale, Kind: KindGenerational, K: 1.5, Adapt: true, AdaptNoDemote: true})
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}

	// Batch 2: re-run the adaptive configuration seeded with the profile
	// the cold run just stored.
	var warmCfgs []RunConfig
	for i, tgt := range AdaptTargets {
		warmCfgs = append(warmCfgs, RunConfig{
			Workload: tgt.Name, Scale: scale, Kind: KindGenerational, K: tgt.K,
			Adapt: true, AdaptWarm: rs[i*perTarget+3].AdaptProfile,
		})
	}
	warm, err := RunAll(warmCfgs, opts)
	if err != nil {
		return err
	}

	header(w, "Extension (§9): online adaptive pretenuring")
	fmt.Fprintln(w, "Copied bytes; recovery% = share of the oracle's copy-cost reduction the advisor achieves")
	fmt.Fprintf(w, "%-13s | %12s %12s %12s | %12s %12s | %6s %6s\n",
		"Program", "none", "offline", "oracle", "adapt-cold", "adapt-warm", "cold%", "warm%")
	for i, tgt := range AdaptTargets {
		none := rs[i*perTarget].Stats.BytesCopied
		off := rs[i*perTarget+1].Stats.BytesCopied
		oracle := rs[i*perTarget+2].Stats.BytesCopied
		cold := rs[i*perTarget+3].Stats.BytesCopied
		warmed := warm[i].Stats.BytesCopied
		recovered := func(copied uint64) float64 {
			saved := float64(none) - float64(oracle)
			if saved <= 0 {
				return 0
			}
			return 100 * (float64(none) - float64(copied)) / saved
		}
		fmt.Fprintf(w, "%-13s | %12d %12d %12d | %12d %12d | %5.1f%% %5.1f%%\n",
			tgt.Name, none, off, oracle, cold, warmed, recovered(cold), recovered(warmed))
	}

	fmt.Fprintln(w, "\nPhaseShift mistrain ablation (k=1.5): the node site earns promotion in")
	fmt.Fprintln(w, "phase 1 and turns to garbage in phase 2; demotion must reclaim the mistake.")
	fmt.Fprintf(w, "%-30s | %8s %8s | %10s %7s %9s\n",
		"Config", "promote", "demote", "pretenured", "majors", "GC(s)")
	for _, r := range rs[psBase:] {
		label := r.Config.Kind.String()
		var proms, demos uint64
		if r.Config.Adapt {
			label += "+adapt"
			proms, demos = r.Adapt.Promotions, r.Adapt.Demotions
		}
		if r.Config.AdaptNoDemote {
			label += " (no demote)"
		}
		fmt.Fprintf(w, "%-30s | %8d %8d | %10d %7d %9.3f\n",
			label, proms, demos, r.Stats.Pretenured, r.Stats.NumMajor, r.GC())
	}
	return nil
}

// SLOMixes lists the server traffic mixes the latency-SLO experiment
// sweeps: steady traffic, the bursty fan-in adversary, and the
// cache-churn adversary that mistrains survival profiles.
var SLOMixes = []string{"ServerSteady", "ServerBurst", "ServerChurn"}

// ExperimentSLO renders the latency-SLO evaluation: each server traffic
// mix runs under no pretenuring, offline profile-driven pretenuring
// (trained at half scale, the paper's methodology), and the online
// advisor starting cold and warm. Every run is traced, and the table is
// computed from the trace by internal/slo: exact nearest-rank pause and
// request-latency percentiles plus minimum mutator utilization at the
// default window sweep. All quantities are pure functions of the
// simulated-cycle event stream, so the table is byte-identical at every
// parallelism level and across runs.
func ExperimentSLO(w io.Writer, scale workload.Scale, opts Options) error {
	// Offline training input: the same mix at half the repetitions.
	train := scale.Canon()
	train.Repeat /= 2

	// A tight budget keeps collections frequent enough that pauses shape
	// the latency tail — the regime an SLO report exists for.
	const sloK = 2
	const perMix = 3 // none, offline, adapt-cold
	var cfgs []RunConfig
	for _, name := range SLOMixes {
		cfgs = append(cfgs,
			RunConfig{Workload: name, Scale: scale, Kind: KindGenerational, K: sloK, Trace: true},
			RunConfig{Workload: name, Scale: scale, Kind: KindGenPretenure, K: sloK, TrainScale: train, Trace: true},
			RunConfig{Workload: name, Scale: scale, Kind: KindGenerational, K: sloK, Adapt: true, Trace: true})
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}

	// Warm batch: the adaptive configuration again, seeded with the
	// profile the cold run just stored (ExperimentAdapt's two-batch
	// pattern).
	var warmCfgs []RunConfig
	for i, name := range SLOMixes {
		warmCfgs = append(warmCfgs, RunConfig{
			Workload: name, Scale: scale, Kind: KindGenerational, K: sloK,
			Adapt: true, AdaptWarm: rs[i*perMix+2].AdaptProfile, Trace: true,
		})
	}
	warm, err := RunAll(warmCfgs, opts)
	if err != nil {
		return err
	}

	header(w, "Experiment: latency SLO (pause/request percentiles, MMU)")
	fmt.Fprintln(w, "Exact nearest-rank percentiles over per-collection pauses and per-request")
	fmt.Fprintln(w, "latencies (simulated cycles); MMU@w = minimum mutator utilization over every")
	fmt.Fprintln(w, "window of w cycles (100% = no pause touches any such window).")
	fmt.Fprintf(w, "%-24s | %7s %7s %7s | %8s %8s %8s %8s | %6s %6s %6s %6s\n",
		"Mix/config", "p50", "p99", "p99.9", "req p50", "req p99", "p99.9", "max",
		"MMU@1k", "@10k", "@100k", "@1M")
	row := func(mix, config string, r *RunResult) error {
		rep, err := slo.Compute(r.Trace.Data(r.Config.Label()), slo.DefaultWindows)
		if err != nil {
			return fmt.Errorf("harness: slo report for %s: %w", r.Config.Label(), err)
		}
		var rq slo.RequestStats
		if rep.Requests != nil {
			rq = *rep.Requests
		}
		fmt.Fprintf(w, "%-24s | %7d %7d %7d | %8d %8d %8d %8d |",
			mix+"/"+config,
			rep.Pauses.P50, rep.Pauses.P99, rep.Pauses.P999,
			rq.P50, rq.P99, rq.P999, rq.Max)
		for _, ws := range rep.Windows {
			fmt.Fprintf(w, " %5.1f%%", float64(ws.MMUppm)/1e4)
		}
		fmt.Fprintln(w)
		return nil
	}
	for i, mix := range SLOMixes {
		configs := []struct {
			name string
			r    *RunResult
		}{
			{"none", rs[i*perMix]},
			{"offline", rs[i*perMix+1]},
			{"adapt-cold", rs[i*perMix+2]},
			{"adapt-warm", warm[i]},
		}
		for _, c := range configs {
			if err := row(mix, c.name, c.r); err != nil {
				return err
			}
		}
	}

	// Parallel copying sweep: every mix under gen+markers at W simulated
	// copy workers. Work sharding is deterministic — the heap image and
	// the request stream are identical at every W — so the only thing that
	// moves is pause wall time, shrunk to the critical path
	// (max-of-workers). Small-window MMU is where that shows: windows that
	// a serial pause blacked out entirely recover utilization as W grows.
	var wcfgs []RunConfig
	for _, name := range SLOMixes {
		for _, wk := range SLOWorkers {
			// DeferMajor at every W (including the serial baseline, so the
			// comparison is policy-for-policy): an over-threshold major runs
			// as its own pause instead of extending the minor that crossed
			// the threshold, which is what a latency-SLO deployment would
			// configure — a combined minor+major pause blacks out small MMU
			// windows at any worker count.
			wcfgs = append(wcfgs, RunConfig{
				Workload: name, Scale: scale, Kind: KindGenMarkers, K: sloK,
				GCWorkers: wk, DeferMajor: true, Trace: true,
			})
		}
	}
	wrs, err := RunAll(wcfgs, opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nParallel copying (gen+markers, W simulated copy workers): identical heap")
	fmt.Fprintln(w, "images and request streams at every W; pause wall time shrinks to the")
	fmt.Fprintln(w, "critical path, so pause percentiles fall and small-window MMU rises.")
	fmt.Fprintf(w, "%-24s | %7s %7s %7s | %8s %8s %8s %8s | %6s %6s %6s %6s\n",
		"Mix/workers", "p50", "p99", "p99.9", "req p50", "req p99", "p99.9", "max",
		"MMU@1k", "@10k", "@100k", "@1M")
	for i, mix := range SLOMixes {
		for j, wk := range SLOWorkers {
			if err := row(mix, fmt.Sprintf("W=%d", wk), wrs[i*len(SLOWorkers)+j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// SLOWorkers is the parallel-copy worker sweep the SLO experiment appends:
// serial, and the two sharded configurations the acceptance gates compare.
var SLOWorkers = []int{1, 2, 4}

// OldgenSuite lists the workloads the old-generation collector comparison
// sweeps: the four pretenure targets (the paper benchmarks that tenure
// the most data, so the old-generation algorithm dominates their GC
// cost) plus the server adversaries that stress the old generation under
// request traffic — cache churn (tenured garbage), drip-leak (monotone
// tenured growth), and their combination (the fragmentation mix).
var OldgenSuite = []string{
	"Knuth-Bendix", "Lexgen", "Nqueen", "Simple",
	"ServerChurn", "ServerDrip", "ServerDripChurn",
}

// OldgenCollectors is the collector axis of the oldgen experiment.
var OldgenCollectors = []core.OldCollector{
	core.OldCopy, core.OldMarkSweep, core.OldMarkCompact,
}

// ExperimentOldgen renders the copy-vs-mark comparison over the old
// generation: every OldgenSuite workload under gen+markers+pretenure at a
// tight memory multiple (frequent majors — the regime where the
// old-generation algorithm dominates GC cost), across the three
// old-generation collectors. Client results are byte-identical across the
// collector axis — the experiment verifies that per workload and fails
// loudly if the differential oracle is violated — so the table isolates
// pure GC-side differences: old-generation words copied (zero under the
// non-moving collectors) versus marked/swept/slid, pause percentiles,
// MMU@10k, and peak committed heap footprint (mark-sweep trades copy cost
// for fragmentation-driven footprint; mark-compact trades it for slide
// cost). Every quantity is a pure function of the simulated-cycle event
// stream, so the rendered table is byte-identical at every parallelism.
func ExperimentOldgen(w io.Writer, scale workload.Scale, opts Options) error {
	// The paper's tight multiple: majors frequent enough that old-gen
	// policy is the first-order GC cost (the SLO experiment's regime).
	const oldgenK = 2
	var cfgs []RunConfig
	for _, name := range OldgenSuite {
		for _, oc := range OldgenCollectors {
			cfgs = append(cfgs, RunConfig{
				Workload: name, Scale: scale, Kind: KindGenMarkersPretenure,
				K: oldgenK, OldCollector: oc, Trace: true, TraceHeap: true,
			})
		}
	}
	rs, err := RunAll(cfgs, opts)
	if err != nil {
		return err
	}

	header(w, "Experiment: old-generation collectors (copy vs mark-sweep vs mark-compact)")
	fmt.Fprintln(w, "gen+markers+pretenure at k=2. Client results are identical across collectors")
	fmt.Fprintln(w, "(verified per row group); only GC cost, pause shape, and footprint move.")
	fmt.Fprintln(w, "Counts are heap words; footprint is the peak committed heap across")
	fmt.Fprintln(w, "end-of-collection samples; MMU@10k = minimum mutator utilization over every")
	fmt.Fprintln(w, "10k-cycle window.")
	fmt.Fprintf(w, "%-28s | %10s %10s %10s %10s | %7s %8s | %7s | %10s\n",
		"Workload/old", "old-copied", "marked", "swept", "slid",
		"p50", "p99", "MMU@10k", "footprint")
	for i, name := range OldgenSuite {
		base := rs[i*len(OldgenCollectors)]
		for j, oc := range OldgenCollectors {
			r := rs[i*len(OldgenCollectors)+j]
			if r.Check != base.Check {
				return fmt.Errorf("harness: oldgen differential violated: %s check %#x under old=%s, %#x under old=%s",
					name, r.Check, oc, base.Check, OldgenCollectors[0])
			}
			data := r.Trace.Data(r.Config.Label())
			rep, err := slo.Compute(data, slo.DefaultWindows)
			if err != nil {
				return fmt.Errorf("harness: slo report for %s: %w", r.Config.Label(), err)
			}
			var mmu10k float64
			for _, ws := range rep.Windows {
				if ws.Window == 10_000 {
					mmu10k = float64(ws.MMUppm) / 1e4
				}
			}
			fmt.Fprintf(w, "%-28s | %10d %10d %10d %10d | %7d %8d | %6.1f%% | %8dKB\n",
				name+"/"+oc.String(),
				r.Stats.OldBytesCopied/mem.WordSize,
				r.Stats.WordsMarked, r.Stats.WordsSwept, r.Stats.WordsSlid,
				rep.Pauses.P50, rep.Pauses.P99, mmu10k,
				peakCommittedWords(data)*mem.WordSize/1024)
		}
	}
	return nil
}

// peakCommittedWords returns the largest total committed heap (in words)
// across a run's end-of-collection occupancy samples.
func peakCommittedWords(data *trace.RunData) uint64 {
	var peak uint64
	for _, hs := range data.Heap {
		var total uint64
		for _, sp := range hs.Spaces {
			total += sp.Committed
		}
		if total > peak {
			peak = total
		}
	}
	return peak
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
