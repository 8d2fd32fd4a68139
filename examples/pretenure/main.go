// Pretenure demonstrates profile-driven pretenuring (§6 of the paper),
// end to end:
//
//  1. run the N-queens benchmark with the heap profiler attached;
//  2. print the Figure 2-style per-site lifetime report;
//  3. derive the pretenuring policy with the paper's 80% old-cutoff rule;
//  4. re-run with pretenuring and compare the bytes copied by the
//     collector.
//
// Run with:
//
//	go run ./examples/pretenure
package main

import (
	"fmt"
	"os"

	"tilgc/gcsim"
)

func main() {
	const bench = "Nqueen"
	scale := gcsim.Scale{Repeat: 0.02}
	info, err := gcsim.Describe(bench)
	if err != nil {
		panic(err)
	}

	// Step 1-2: profiled run (small nursery = frequent lifetime samples).
	profiled := gcsim.NewRuntime(gcsim.Config{
		Collector:    gcsim.Generational,
		NurseryWords: 4 * 1024,
		Profile:      true,
		SiteNames:    info.Sites,
	})
	if _, err := profiled.RunBenchmark(bench, scale); err != nil {
		panic(err)
	}
	profiled.Profiler().WriteReport(os.Stdout, gcsim.DefaultReportOptions(bench))

	// Step 3: the policy.
	policy := gcsim.PolicyFromProfile(profiled.Profiler(), gcsim.PaperCutoffPct, 32)
	fmt.Printf("\npretenured sites (old%% >= %d):", gcsim.PaperCutoffPct)
	for _, id := range policy.Sites() {
		fmt.Printf(" %d(%s)", id, info.Sites[id])
	}
	fmt.Println()

	// Step 4: baseline vs pretenured, identical budgets.
	base := gcsim.NewRuntime(gcsim.Config{
		Collector: gcsim.GenerationalMarkers, NurseryWords: 8 * 1024,
	})
	checkBase, _ := base.RunBenchmark(bench, scale)

	pre := gcsim.NewRuntime(gcsim.Config{
		Collector: gcsim.GenerationalFull, Pretenure: policy, NurseryWords: 8 * 1024,
	})
	checkPre, _ := pre.RunBenchmark(bench, scale)

	if checkBase != checkPre {
		panic("pretenuring changed the program's answer")
	}
	fmt.Printf("\n%-32s %12s %12s %10s\n", "", "copied(KB)", "gc(s)", "pretenured")
	fmt.Printf("%-32s %12d %12.4f %10d\n", base.CollectorName(),
		base.Stats().BytesCopied/1024, base.GCSeconds(), base.Stats().Pretenured)
	fmt.Printf("%-32s %12d %12.4f %10d\n", pre.CollectorName(),
		pre.Stats().BytesCopied/1024, pre.GCSeconds(), pre.Stats().Pretenured)
	fmt.Printf("\ncopying reduced %.0f%% (the paper reports Nqueen GC time -50%%)\n",
		100*(1-float64(pre.Stats().BytesCopied)/float64(base.Stats().BytesCopied)))
}
