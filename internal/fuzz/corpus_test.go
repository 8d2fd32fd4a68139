package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCorpusReplays runs every committed corpus program across the full
// collector matrix: each is a pin — a program that once mattered (a
// feature-pair stress or a minimized reproducer) and must stay clean
// forever. It also guards against corpus rot: a pin that no longer
// triggers any collection exercises nothing, so each program must still
// collect under the generational baseline.
func TestCorpusReplays(t *testing.T) {
	entries, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("committed corpus has %d programs, want >= 3", len(entries))
	}
	for _, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			if fails := CheckProgram(e.Program, nil); len(fails) != 0 {
				for _, f := range fails {
					t.Errorf("%s", f)
				}
			}
			out := execute(e.Program, Config{Name: "gen"}, false, false)
			if out.panicked != nil {
				t.Fatalf("gen replay panicked: %v", out.panicked)
			}
			if out.stats.NumGC == 0 {
				t.Fatal("corpus program no longer triggers any collection — it pins nothing")
			}
		})
	}
}

// TestCorpusNamesDocumentIntent: committed entries follow the naming
// conventions the tooling writes and the docs describe — either a
// feature-pair pin ("pair-*") or a minimized failure ("seed-N-kind").
func TestCorpusNamesDocumentIntent(t *testing.T) {
	entries, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name, "pair-") && !strings.HasPrefix(e.Name, "seed-") {
			t.Errorf("corpus file %q matches neither pair-* nor seed-*", e.Name)
		}
		if !strings.HasSuffix(e.Name, CorpusExt) {
			t.Errorf("corpus file %q lacks the %s extension", e.Name, CorpusExt)
		}
	}
}

// TestWriteLoadCorpusRoundTrip: a minimized reproducer written by the
// sweep tooling reloads as the identical program, named by its failure,
// alongside the rest of the directory in sorted order.
func TestWriteLoadCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fail := Failure{Seed: 42, Config: "gen+markers", Kind: FailDivergence, Detail: "fingerprint mismatch"}
	p := &Program{Seed: 42, Ops: []Op{
		{Kind: OpAllocRecord, A: 0, B: 1, C: 3, V: 9},
		{Kind: OpCollect, V: 1},
	}}
	path, err := WriteCorpusFile(dir, p, fail)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "seed-42-divergence.prog" {
		t.Fatalf("corpus file named %q", filepath.Base(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# seed 42 [gen+markers] divergence") {
		t.Fatalf("corpus file does not lead with its failure comment:\n%s", data)
	}

	// A non-corpus file is ignored; a second reproducer sorts after.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a program"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCorpusFile(dir, p, Failure{Seed: 7, Config: "gen", Kind: FailCrash}); err != nil {
		t.Fatal(err)
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(entries))
	}
	if entries[0].Name != "seed-42-divergence.prog" || entries[1].Name != "seed-7-crash.prog" {
		t.Fatalf("entries out of sorted order: %s, %s", entries[0].Name, entries[1].Name)
	}
	if !reflect.DeepEqual(entries[0].Program, p) {
		t.Fatal("reloaded program differs from the written one")
	}

	// Missing directory: empty corpus, not an error.
	if got, err := LoadCorpus(filepath.Join(dir, "absent")); err != nil || got != nil {
		t.Fatalf("missing dir: got %v, %v; want nil, nil", got, err)
	}
	// A malformed .prog file is a hard error — silently skipping a
	// reproducer would un-pin a regression.
	if err := os.WriteFile(filepath.Join(dir, "zz-bad.prog"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil {
		t.Fatal("corrupt corpus file loaded without error")
	}
}

// TestEveryObjectDiesOnce replays every committed corpus program, and
// the generated programs of a dozen seeds, under every matrix config with
// the profiler attached: after Finalize each allocated object has died
// exactly once, and no site has more first-collection survivors than
// allocations. A condemned space the collector never reported to the
// profiler loses its deaths. The corpus programs allocate too little to
// reach the aging space's dead; half of the seeds do.
func TestEveryObjectDiesOnce(t *testing.T) {
	entries, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 12; seed++ {
		entries = append(entries, CorpusEntry{Name: fmt.Sprintf("seed %d", seed), Program: Generate(seed)})
	}
	for _, e := range entries {
		for _, cfg := range Matrix() {
			out := execute(e.Program, cfg, true, false)
			if out.panicked != nil || out.traceErr != nil {
				t.Fatalf("%s [%s]: panic %v, trace error %v", e.Name, cfg.Name, out.panicked, out.traceErr)
			}
			var allocs, deaths uint64
			for _, s := range out.prof.Sites() {
				allocs += s.AllocCount
				deaths += s.Deaths
				if s.SurvivedFirst > s.AllocCount {
					t.Errorf("%s [%s]: site %d survived first %d > allocated %d",
						e.Name, cfg.Name, s.Site, s.SurvivedFirst, s.AllocCount)
				}
			}
			if deaths != allocs {
				t.Errorf("%s [%s]: %d deaths for %d allocations", e.Name, cfg.Name, deaths, allocs)
			}
		}
	}
}
