package gcsim

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// experimentsGolden is the stdout of
//
//	go run ./cmd/gcbench -experiment all -repeat 0.001 -depth 0.15 -parallel 1
//
// without its first line, the scale header. There is no update flag: the
// file is the CLI's output, so regenerate it with
//
//	go run ./cmd/gcbench -experiment all -repeat 0.001 -depth 0.15 -parallel 1 | tail -n +2 > gcsim/testdata/experiments.txt
const experimentsGolden = "testdata/experiments.txt"

// goldenScale is the scale experimentsGolden is rendered at.
var goldenScale = Scale{Repeat: 0.001, Depth: 0.15}

// goldenRun is every experiment rendered at goldenScale through a
// four-worker pool, in Experiments order. It is made once and shared by
// the tests that check it.
type goldenRun struct {
	out    []string // each experiment's output
	events int      // progress events the pool reported
	err    error
}

var (
	goldenOnce     sync.Once
	goldenRendered goldenRun
)

// renderGolden returns the shared goldenRun, rendering it on first use.
func renderGolden(t *testing.T) goldenRun {
	t.Helper()
	goldenOnce.Do(func() {
		r := &goldenRendered
		opts := RunOptions{Parallelism: 4, Events: func(RunEvent) { r.events++ }}
		for _, name := range Experiments() {
			var b strings.Builder
			if err := ExperimentOpts(&b, name, goldenScale, opts); err != nil {
				r.err = fmt.Errorf("%s: %v", name, err)
				return
			}
			r.out = append(r.out, b.String())
		}
	})
	if goldenRendered.err != nil {
		t.Fatal(goldenRendered.err)
	}
	return goldenRendered
}

// TestExperimentsGolden compares every experiment's four-worker rendering,
// in Experiments order, byte for byte with the serial CLI output pinned in
// experimentsGolden. It pins every table and figure the repository
// reports, and that parallel rendering equals serial rendering for each of
// them.
func TestExperimentsGolden(t *testing.T) {
	raw, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	run := renderGolden(t)
	off := 0
	for i, name := range Experiments() {
		got := run.out[i]
		if !strings.HasPrefix(want[off:], got) {
			line, g, w := firstLineDiff(got, want[off:])
			t.Fatalf("experiment %s differs from %s at line %d:\n got: %q\nwant: %q\n"+
				"If the change is intended, regenerate the file with:\n"+
				"  go run ./cmd/gcbench -experiment all -repeat 0.001 -depth 0.15 -parallel 1 | tail -n +2 > gcsim/testdata/experiments.txt",
				name, experimentsGolden, strings.Count(want[:off], "\n")+line, g, w)
		}
		off += len(got)
	}
	if off != len(want) {
		t.Fatalf("%s has %d lines after the last experiment's output", experimentsGolden,
			strings.Count(want[off:], "\n"))
	}
}

// TestExperimentDispatchAllNames checks that every name Experiments lists
// dispatches to a renderer that succeeds and prints something.
func TestExperimentDispatchAllNames(t *testing.T) {
	run := renderGolden(t)
	for i, name := range Experiments() {
		if len(run.out[i]) == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

// TestExperimentOptsParallelIdentical renders "elide" serially in process
// and checks it equals the four-worker rendering, and that the worker
// pool's progress hook fired.
func TestExperimentOptsParallelIdentical(t *testing.T) {
	run := renderGolden(t)
	i := slices.Index(Experiments(), "elide")
	var serial strings.Builder
	if err := ExperimentOpts(&serial, "elide", goldenScale, RunOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != run.out[i] {
		t.Fatalf("parallel output differs from serial:\n%s\nvs\n%s", serial.String(), run.out[i])
	}
	if run.events == 0 {
		t.Fatal("progress hook never fired")
	}
}

// firstLineDiff returns the 1-based number of the first line where got
// and want differ, with both lines ("<end>" past the end of either). got
// is not a prefix of want, so some line differs.
func firstLineDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		gl, wl := "<end>", "<end>"
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return i + 1, gl, wl
		}
	}
}
