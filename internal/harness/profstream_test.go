package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/prof"
	"tilgc/internal/trace"
	"tilgc/internal/workload"
)

const streamDigestPath = "testdata/prof_streams.txt"

// streamWorkloads are the programs whose profiler-fed streams are
// pinned, each at a scale that still collects often enough to exercise
// minors, majors and (under aging) the aging space. Knuth-Bendix cannot
// shrink below ~190k allocations, so it runs only the semispace baseline
// and the kind with the most profiler traffic (aging plus pretenuring).
var streamWorkloads = []struct {
	name  string
	scale workload.Scale
	kinds []CollectorKind // nil: every kind
}{
	{"Color", workload.Scale{Repeat: 0.002, Depth: 0.3}, nil},
	{"Life", workload.Scale{Repeat: 0.01, Depth: 0.3}, nil},
	{"ServerDripChurn", workload.Scale{Repeat: 0.01, Depth: 0.3}, nil},
	{"Knuth-Bendix", workload.Scale{Repeat: 0.001, Depth: 0.01},
		[]CollectorKind{KindSemispace, KindGenAgingPretenure}},
}

var oldCollectors = []core.OldCollector{core.OldCopy, core.OldMarkSweep, core.OldMarkCompact}

// streamConfigs is every harness collector kind (or the workload's
// subset) under every old collector (semispace has none) for each stream
// workload, at T=2 W=2. Each kind runs once profiled and traced, and each generational kind
// once more with the online advisor, so the profile report, the trace's
// site records and the advisor's event feed are all covered.
func streamConfigs() []RunConfig {
	var out []RunConfig
	for _, w := range streamWorkloads {
		kinds := w.kinds
		if kinds == nil {
			kinds = allKinds
		}
		for _, kind := range kinds {
			for _, old := range oldCollectors {
				if kind == KindSemispace && old != core.OldCopy {
					continue
				}
				cfg := RunConfig{
					Workload: w.name, Scale: w.scale, Kind: kind, K: 2,
					OldCollector: old, Threads: 2, GCWorkers: 2,
					Profile: true, Trace: true,
				}
				out = append(out, cfg)
				if kind != KindSemispace {
					cfg.Profile = false
					cfg.Adapt = true
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

// streamDigest hashes everything a run's profiler feeds: the Figure 2
// report, the full per-site statistics (float sums printed exactly, so a
// change in death order shows), the trace JSONL with its site records,
// the advisor's snapshot and store profile, and the run's check
// value and cycles.
func streamDigest(t *testing.T, cfg RunConfig, r *RunResult) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "check %d\ntimes %+v\nstats %+v\n", r.Check, r.Times, r.Stats)
	if r.Profiler != nil {
		r.Profiler.WriteReport(h, prof.DefaultReportOptions(cfg.Label()))
		// The trace-only counts reach the digest through the site records
		// below; these eight keep the layout the pinned digests were
		// taken with.
		for _, s := range r.Profiler.Sites() {
			fmt.Fprintf(h, "site {Site:%v Name:%v AllocBytes:%v AllocCount:%v CopiedBytes:%v SurvivedFirst:%v Deaths:%v SumDeathAgeKB:%v}\n",
				s.Site, s.Name, s.AllocBytes, s.AllocCount, s.CopiedBytes, s.SurvivedFirst, s.Deaths, s.SumDeathAgeKB)
		}
	}
	if r.Trace != nil {
		if err := trace.NewFile(r.Trace.Data(cfg.Label())).WriteJSONL(h); err != nil {
			t.Fatal(err)
		}
	}
	if r.Adapt != nil {
		fmt.Fprintf(h, "adapt %+v\nstore %+v\n", *r.Adapt, *r.AdaptProfile)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProfilerStreamsPinned pins a SHA-256 of every profiler-fed output
// for each stream config: the proof that a change to the profiler's
// bookkeeping left its per-site table and observer event sequences, and so
// every report, trace and advisor decision, byte-identical. Refresh
// intentionally with:
//
//	go test ./internal/harness -run TestProfilerStreamsPinned -update-golden
func TestProfilerStreamsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("pinned streams run ~160 traced configs; too slow under -race")
	}
	var got strings.Builder
	for _, cfg := range streamConfigs() {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		fmt.Fprintf(&got, "%s\t%s\n", streamDigest(t, cfg, r), cfg.Label())
	}
	checkPinnedLines(t, streamDigestPath, got.String())
}

// TestEveryObjectDiesOnce checks the profiler's lifetime bookkeeping
// against the allocation count: after Finalize every allocated object
// has died exactly once, and no site has more first-collection survivors
// than allocations. An object whose death the collector never reported
// (a condemned space the profiler was not told about) breaks the sum.
func TestEveryObjectDiesOnce(t *testing.T) {
	for _, kind := range allKinds {
		for _, old := range oldCollectors {
			if kind == KindSemispace && old != core.OldCopy {
				continue
			}
			cfg := RunConfig{Workload: "Color", Scale: workload.Scale{Repeat: 0.005, Depth: 0.3},
				Kind: kind, K: 2, OldCollector: old, Profile: true}
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Label(), err)
			}
			checkDiesOnce(t, cfg.Label(), r.Profiler)
		}
	}
}

func checkDiesOnce(t *testing.T, label string, p *prof.Profiler) {
	t.Helper()
	var allocs, deaths uint64
	for _, s := range p.Sites() {
		allocs += s.AllocCount
		deaths += s.Deaths
		if s.SurvivedFirst > s.AllocCount {
			t.Errorf("%s: site %d survived first %d > allocated %d", label, s.Site, s.SurvivedFirst, s.AllocCount)
		}
	}
	if allocs == 0 {
		t.Fatalf("%s: profiler saw no allocations", label)
	}
	if deaths != allocs {
		t.Errorf("%s: %d deaths for %d allocations", label, deaths, allocs)
	}
}
