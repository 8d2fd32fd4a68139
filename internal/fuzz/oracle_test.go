package fuzz

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tilgc/internal/core"
)

// compareInChunks streams got into a comparer against want, split into
// writes of the given sizes (cycled), and returns its verdict.
func compareInChunks(want, got []byte, sizes []int) bool {
	c := traceComparer{want: want}
	for i := 0; len(got) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(got))
		if k, err := c.Write(got[:n]); k != n || err != nil {
			panic(fmt.Sprintf("Write(%d bytes) = %d, %v", n, k, err))
		}
		got = got[n:]
	}
	return c.equal()
}

// TestTraceComparer: the run-twice comparer accepts exactly the first
// run's bytes — one differing byte anywhere, a truncated stream, or an
// overlong one is flagged — and its verdict does not depend on where the
// writer splits the stream.
func TestTraceComparer(t *testing.T) {
	want := bytes.Repeat([]byte(`{"t":"gc_begin","run":0,"seq":7}`+"\n"), 40)
	flip := func(i int) []byte {
		b := bytes.Clone(want)
		b[i] ^= 1
		return b
	}
	cases := []struct {
		name string
		got  []byte
		same bool
	}{
		{"equal", bytes.Clone(want), true},
		{"differ-first", flip(0), false},
		{"differ-middle", flip(len(want) / 2), false},
		{"differ-last", flip(len(want) - 1), false},
		{"shorter", want[:len(want)-1], false},
		{"longer", append(bytes.Clone(want), '\n'), false},
		{"empty", nil, false},
	}
	splits := [][]int{{len(want) + 1}, {1}, {2}, {3}, {7}, {4096}, {1, 5, 64, 3}, {len(want) / 2}}
	for _, tc := range cases {
		for _, sizes := range splits {
			if got := compareInChunks(want, tc.got, sizes); got != tc.same {
				t.Errorf("%s split %v: equal() = %v, want %v", tc.name, sizes, got, tc.same)
			}
		}
	}

	// An empty reference (the first run's trace errored) accepts only an
	// empty stream.
	if !compareInChunks(nil, nil, []int{1}) || compareInChunks(nil, []byte("x"), []int{1}) {
		t.Error("comparer against an empty reference: want equal only for no bytes")
	}
}

// TestStreamedRunTwiceMatchesBuffered: a real second execution streamed
// through the comparer agrees with its own buffered trace bytes, and
// flags a reference that differs from them in one byte.
func TestStreamedRunTwiceMatchesBuffered(t *testing.T) {
	p := Generate(3)
	cfg := Matrix()[1]
	first := execute(p, cfg, true, true)
	if first.panicked != nil || first.traceErr != nil || len(first.traceRaw) == 0 {
		t.Fatalf("first run: panicked %v, trace error %v, %d trace bytes",
			first.panicked, first.traceErr, len(first.traceRaw))
	}
	cmp := traceComparer{want: first.traceRaw}
	if out := executeTo(p, cfg, true, &cmp); out.traceErr != nil || !cmp.equal() {
		t.Fatalf("streamed second run: trace error %v, equal %v", out.traceErr, cmp.equal())
	}

	bad := bytes.Clone(first.traceRaw)
	bad[len(bad)/3] ^= 1
	cmp = traceComparer{want: bad}
	if executeTo(p, cfg, true, &cmp); cmp.equal() {
		t.Fatal("streamed comparison accepted a reference with one flipped byte")
	}
}

// TestSemispaceEntryRejectsGenerationalKnobs: a semispace entry that sets
// a knob only the generational collector honours is a crash naming the
// field, never a plain semispace run reported under the entry's name.
func TestSemispaceEntryRejectsGenerationalKnobs(t *testing.T) {
	p := Generate(3)
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"CardTable", Config{Name: "semispace+cards", Semispace: true, Cards: true}},
		{"AgingMinors", Config{Name: "semispace+aging", Semispace: true, AgingMinors: fuzzAgingMinors}},
		{"Pretenure", Config{Name: "semispace+pretenure", Semispace: true, Pretenure: true}},
		{"OldCollector", Config{Name: "semispace+marksweep", Semispace: true, Old: core.OldMarkSweep}},
	} {
		fails := CheckProgram(p, []Config{tc.cfg})
		if len(fails) != 1 || fails[0].Kind != FailCrash || !strings.Contains(fails[0].Detail, tc.field) {
			t.Errorf("%s: failures %v, want one crash naming %s", tc.cfg.Name, fails, tc.field)
		}
	}
}
