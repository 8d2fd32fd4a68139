package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"tilgc/internal/trace"
	"tilgc/internal/workload"
)

// The run-digest pins: one line per configuration, the serial runs in
// the first file and the sharded-worker runs in the second.
const (
	runDigestPath         = "testdata/run_digests.txt"
	parallelRunDigestPath = "testdata/run_digests_parallel.txt"
)

// runJSONL renders a traced run's full event stream as JSONL bytes.
func runJSONL(t *testing.T, r *RunResult) []byte {
	t.Helper()
	f := trace.NewFile(r.Trace.Data(r.Config.Label()))
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serialDigestConfigs are the runs
// TestReferenceKernelsObservationallyIdentical covers: every detConfigs
// entry traced, every third also under the heap-integrity sanitizer.
func serialDigestConfigs() []RunConfig {
	cfgs := detConfigs()
	for i := range cfgs {
		cfgs[i].Trace = true
		cfgs[i].Sanitize = i%3 == 0
	}
	return cfgs
}

// parallelDigestConfigs are the runs TestReferenceKernelsParallelWorkers
// covers: three configurations that cross the copying kernels, the card
// drain and the SSB drain at each sharded worker count, so the pins also
// fix where each kernel places its parallel work quanta.
func parallelDigestConfigs() []RunConfig {
	parallel := []RunConfig{
		{Workload: "ServerSteady", Scale: workload.Scale{Repeat: 0.004},
			Kind: KindGenMarkers, K: 2, DeferMajor: true, Trace: true, Sanitize: true},
		{Workload: "Life", Scale: tiny, Kind: KindGenCards, K: 1.5, Trace: true},
		{Workload: "Nqueen", Scale: tiny, Kind: KindSemispace, K: 4, Trace: true},
	}
	var cfgs []RunConfig
	for _, w := range gridTW[1:] {
		for _, cfg := range parallel {
			cfg.GCWorkers = w
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// runDigest hashes everything sameResult compares plus the run's full
// JSONL trace stream: every phase-boundary cycle stamp, per-site
// counter and worker tally.
func runDigest(t *testing.T, r *RunResult) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "check %d\ntimes %+v\nstats %+v\nupdates %d depth %d\n",
		r.Check, r.Times, r.Stats, r.Updates, r.MaxDepth)
	h.Write(runJSONL(t, r))
	return hex.EncodeToString(h.Sum(nil))
}

// checkPinnedLines compares got, one pinned line per configuration,
// with the file at path, or rewrites the file under -update-golden.
func checkPinnedLines(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d configs, %s pins %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i, line := range gotLines {
		if line != wantLines[i] {
			t.Errorf("%s: pin changed:\n got  %s\n pin  %s", path, line, wantLines[i])
		}
	}
}

// checkRunDigests runs each configuration and compares its run digest
// with the pin file at path.
func checkRunDigests(t *testing.T, path string, cfgs []RunConfig) {
	t.Helper()
	var got strings.Builder
	for _, cfg := range cfgs {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		fmt.Fprintf(&got, "%s\t%s\n", runDigest(t, r), cfg.Label())
	}
	checkPinnedLines(t, path, got.String())
}

// TestReferenceKernelsObservationallyIdentical pins, for real paper
// workloads, the checksums, cycle breakdowns, GC stats, barrier counts
// and entire JSONL trace streams of serial runs. The pins were recorded
// while a preserved copy of the pre-optimization kernels still shipped,
// and both kernel sets produced them, so the shipped kernels stay
// observationally identical to that reference. Refresh intentionally
// with:
//
//	go test ./internal/harness -run TestReferenceKernels -update-golden
func TestReferenceKernelsObservationallyIdentical(t *testing.T) {
	checkRunDigests(t, runDigestPath, serialDigestConfigs())
}

// TestReferenceKernelsParallelWorkers pins the same outputs at every
// sharded worker count, recorded the same way, so the worker schedule
// each kernel produces stays the reference kernels' schedule.
func TestReferenceKernelsParallelWorkers(t *testing.T) {
	checkRunDigests(t, parallelRunDigestPath, parallelDigestConfigs())
}
