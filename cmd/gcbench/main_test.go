package main

import (
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"tilgc/gcsim"
	"tilgc/internal/trace"
)

// parse parses args as gcbench's command line and checks the flags.
func parse(t *testing.T, args ...string) (*cli, error) {
	t.Helper()
	fs := flag.NewFlagSet("gcbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return f, f.check(fs)
}

// sessionOf parses args and builds the run session they configure.
func sessionOf(t *testing.T, args ...string) *session {
	t.Helper()
	f, err := parse(t, args...)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	s, err := f.session()
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return s
}

// TestRunFlagsReachRunOptions checks that every flag that configures runs
// lands in its RunOptions or Scale field: each case's predicate must fail
// on the default command line and hold once the flag is given.
func TestRunFlagsReachRunOptions(t *testing.T) {
	warm := filepath.Join(t.TempDir(), "warm.jsonl")
	out, err := os.Create(warm)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&gcsim.AdaptStore{}).WriteJSONL(out); err != nil {
		t.Fatal(err)
	}
	out.Close()
	workers := runtime.NumCPU() + 1

	for _, tc := range []struct {
		args    []string
		reached func(s *session) bool
	}{
		{[]string{"-parallel", strconv.Itoa(workers)}, func(s *session) bool { return s.opts.Parallelism == workers }},
		{[]string{"-progress"}, func(s *session) bool { return s.opts.Events != nil }},
		{[]string{"-sanitize"}, func(s *session) bool { return s.opts.Sanitize }},
		{[]string{"-trace", "t.jsonl"}, func(s *session) bool { return collectsTrace(s) }},
		{[]string{"-trace-heap", "-trace", "t.jsonl"}, func(s *session) bool { return s.opts.TraceHeap }},
		{[]string{"-metrics"}, func(s *session) bool { return collectsTrace(s) }},
		{[]string{"-threads", "3"}, func(s *session) bool { return s.opts.Threads == 3 }},
		{[]string{"-old", "marksweep"}, func(s *session) bool { return s.opts.OldCollector == gcsim.OldMarkSweep }},
		{[]string{"-old", "markcompact"}, func(s *session) bool { return s.opts.OldCollector == gcsim.OldMarkCompact }},
		{[]string{"-gc-workers", "4"}, func(s *session) bool { return s.opts.GCWorkers == 4 }},
		{[]string{"-adapt"}, func(s *session) bool { return s.opts.Adapt }},
		{[]string{"-adapt-store", "s.jsonl"}, func(s *session) bool { return s.opts.Adapt && collectsProfiles(s) }},
		{[]string{"-adapt-warm", warm}, func(s *session) bool { return s.opts.Adapt && s.opts.AdaptWarm != nil }},
		{[]string{"-repeat", "0.5"}, func(s *session) bool { return s.scale.Repeat == 0.5 }},
		{[]string{"-depth", "0.25"}, func(s *session) bool { return s.scale.Depth == 0.25 }},
	} {
		if tc.reached(sessionOf(t)) {
			t.Errorf("%q: predicate already holds on the default command line", tc.args)
		}
		if !tc.reached(sessionOf(t, tc.args...)) {
			t.Errorf("%q: flag did not reach its run option", tc.args)
		}
	}
}

// collectsTrace reports whether the session's trace sink keeps what it is
// handed for the trace file and metrics written after the experiments.
func collectsTrace(s *session) bool {
	if s.opts.TraceSink == nil {
		return false
	}
	s.opts.TraceSink([]*trace.RunData{{}})
	return len(s.traceRuns) == 1
}

// collectsProfiles is collectsTrace for the advisor-store sink.
func collectsProfiles(s *session) bool {
	if s.opts.AdaptSink == nil {
		return false
	}
	s.opts.AdaptSink([]*gcsim.AdaptProfile{{}})
	return len(s.adaptProfiles) == 1
}

// TestRejectedFlagsExitTwo checks that flag values gcbench cannot honour,
// and flags the chosen mode would ignore, are usage errors (exit status
// 2), and that an unreadable warm-start store is an ordinary failure
// (status 1). The flags -fuzz does take are accepted with it (status 0).
func TestRejectedFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-old", "bogus"}, 2},
		{[]string{"-trace-format", "x"}, 2},
		{[]string{"-trace-heap"}, 2},
		{[]string{"-trace-heap", "-metrics"}, 2},
		{[]string{"-adapt-warm", filepath.Join(t.TempDir(), "missing.jsonl")}, 1},
		{[]string{"-fuzz", "-old", "bogus"}, 2},
		{[]string{"-fuzz", "-table", "5", "-trace", "t.jsonl"}, 2},
		{[]string{"-fuzz", "-list"}, 2},
		{[]string{"-fuzz-seeds", "0..4"}, 2},
		{[]string{"-fuzz-minimize"}, 2},
		{[]string{"-fuzz-corpus", "corpus"}, 2},
		{[]string{"-fuzz-verbose"}, 2},
		{[]string{"-export-store", "f2.jsonl"}, 2},
		{[]string{"-table", "2", "-export-store", "f2.jsonl"}, 2},
		{[]string{"-fuzz", "-export-store", "f2.jsonl"}, 2},
		{[]string{"-table", "1", "-figure", "2", "-export-store", "f2.jsonl"}, 2},
		{[]string{"-figure", "2", "-experiment", "all"}, 2},
		{[]string{"-table", "4", "-experiment", "elide"}, 2},
		{[]string{"-fuzz", "-fuzz-seeds", "0..4", "-fuzz-minimize", "-fuzz-corpus", "corpus",
			"-fuzz-verbose", "-parallel", "2", "-progress"}, 0},
	} {
		f, err := parse(t, tc.args...)
		if err == nil && !f.fuzz {
			_, err = f.session()
		}
		if err == nil {
			if tc.want != 0 {
				t.Errorf("%q accepted", tc.args)
			}
			continue
		}
		if got := exitCode(err); got != tc.want {
			t.Errorf("%q: exit %d (%v), want %d", tc.args, got, err, tc.want)
		}
	}
}

// TestMain runs gcbench's main instead of the tests when the test binary
// is started by gcbench (below), so a test can run the whole command.
func TestMain(m *testing.M) {
	if os.Getenv("GCBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gcbench runs the gcbench command with args and returns its stdout.
func gcbench(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GCBENCH_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("gcbench %q: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// TestExportStoreKeepsFigure2 checks that -export-store leaves Figure 2's
// stdout as it is, and writes a store of one profile per Figure 2 run,
// labelled with the run.
func TestExportStoreKeepsFigure2(t *testing.T) {
	args := []string{"-figure", "2", "-repeat", "0.001", "-depth", "0.15", "-parallel", "2"}
	path := filepath.Join(t.TempDir(), "f2.jsonl")
	plain, exported := gcbench(t, args...), gcbench(t, append(args, "-export-store", path)...)
	if plain != exported {
		t.Fatalf("-export-store changed Figure 2's stdout:\n%s\nwant:\n%s", exported, plain)
	}
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	store, err := gcsim.ReadAdaptStore(in)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, p := range store.Profiles {
		labels = append(labels, p.Label)
		if len(p.Sites) == 0 {
			t.Errorf("profile %s has no sites", p.Label)
		}
	}
	if want := "Knuth-Bendix/generational Nqueen/generational"; strings.Join(labels, " ") != want {
		t.Errorf("store profiles %q, want %s", labels, want)
	}
}
