package fuzz

import (
	"reflect"
	"testing"
)

// TestGenerateDeterministic: a program is a pure function of its seed —
// the whole design rests on a failing seed being a complete bug report.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if reflect.DeepEqual(Generate(1), Generate(2)) {
		t.Fatal("distinct seeds generated identical programs")
	}
}

// TestGenerateBounds: op counts stay inside [minOps, minOps+spanOps) plus
// the root prologue, and the prologue fills every root with a record.
func TestGenerateBounds(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		p := Generate(seed)
		n := len(p.Ops) - NumRoots
		if n < minOps || n >= minOps+spanOps {
			t.Fatalf("seed %d: %d body ops outside [%d,%d)", seed, n, minOps, minOps+spanOps)
		}
		for i := 0; i < NumRoots; i++ {
			op := p.Ops[i]
			if op.Kind != OpAllocRecord {
				t.Fatalf("seed %d: prologue op %d is %v, want alloc-record", seed, i, op.Kind)
			}
			if got := root(op.A); got != i+1 {
				t.Fatalf("seed %d: prologue op %d targets root %d, want %d", seed, i, got, i+1)
			}
			if op.recordLen() == 0 {
				t.Fatalf("seed %d: prologue op %d allocates an empty record", seed, i)
			}
		}
		if p.AllocWords() == 0 {
			t.Fatalf("seed %d: program allocates nothing", seed)
		}
	}
}

// TestProfileCoverage: the seed-to-profile mapping reaches every stress
// profile within a small seed window, so any contiguous sweep exercises
// every feature pairing.
func TestProfileCoverage(t *testing.T) {
	seen := make(map[Profile]bool)
	for seed := uint64(0); seed < 64; seed++ {
		p := ProfileOf(seed)
		if p < 0 || p >= numProfiles {
			t.Fatalf("seed %d: profile %d out of range", seed, p)
		}
		seen[p] = true
	}
	if len(seen) != int(numProfiles) {
		t.Fatalf("seeds 0..63 covered %d/%d profiles: %v", len(seen), numProfiles, seen)
	}
}

// TestPhaseFlipSites: the phase-flip profile must use sites 1..3 in the
// first half and 4..6 in the second — the site-population flip is what
// trains then mistrains the adaptive advisor.
func TestPhaseFlipSites(t *testing.T) {
	var seed uint64
	for ; ProfileOf(seed) != ProfilePhaseFlip; seed++ {
	}
	p := Generate(seed)
	body := p.Ops[NumRoots:]
	half := len(body) / 2
	for i, op := range body {
		switch op.Kind {
		case OpAllocRecord, OpAllocPtrArray, OpAllocRawArray:
			s := op.site()
			if i < half && s > NumSites/2 {
				t.Fatalf("seed %d: first-half op %d allocates at site %d, want 1..%d", seed, i, s, NumSites/2)
			}
			if i >= half && s <= NumSites/2 {
				t.Fatalf("seed %d: second-half op %d allocates at site %d, want %d..%d",
					seed, i, s, NumSites/2+1, NumSites)
			}
		}
	}
}

// TestFormatRoundTrip: the corpus text format preserves programs exactly
// — a committed reproducer must replay the very ops that failed.
func TestFormatRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		p := Generate(seed)
		back, err := ParseString(p.Format())
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("seed %d: format round-trip changed the program", seed)
		}
	}
}

// TestParseRejects: malformed corpus files fail with line-positioned
// errors instead of decoding to a silently different program.
func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"no header":   "seed 1\nwork 0 0 0 0\n",
		"bad header":  "tilgc-fuzz-program v99\nseed 1\n",
		"unknown op":  formatHeader + "\nseed 1\nteleport 0 0 0 0\n",
		"bad arity":   formatHeader + "\nseed 1\nwork 0 0 0\n",
		"bad operand": formatHeader + "\nseed 1\nwork x 0 0 0\n",
		"bad seed":    formatHeader + "\nseed zebra\n",
		"empty":       "",
		"seed suffix": formatHeader + "\nseed 12abc\n",
		"op suffix":   formatHeader + "\nseed 1\nwork 0 0 0 4x\n",
		"two seeds":   formatHeader + "\nseed 1\nwork 0 0 0 0\nseed 2\n",
		"A overflow":  formatHeader + "\nseed 1\nwork 65536 0 0 0\n",
	}
	for name, in := range cases {
		if _, err := ParseString(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Comments and blank lines are fine anywhere.
	p, err := ParseString("# pinned reproducer\n" + formatHeader + "\n\nseed 7\n# body\nwork 1 2 3 4\n")
	if err != nil {
		t.Fatalf("commented program rejected: %v", err)
	}
	if p.Seed != 7 || len(p.Ops) != 1 || p.Ops[0].Kind != OpWork {
		t.Fatalf("commented program misparsed: %+v", p)
	}
}

// TestExecuteDeterministic is the direct unit form of the run-twice
// oracle: two plain executions of the same program under the same config
// agree on fingerprint, checksum, and stats.
func TestExecuteDeterministic(t *testing.T) {
	p := Generate(3)
	for _, cfg := range []Config{{Name: "semispace", Semispace: true}, {Name: "gen+markers", MarkerN: fuzzMarkerN}} {
		a := execute(p, cfg, false, false)
		b := execute(p, cfg, false, false)
		if a.panicked != nil || b.panicked != nil {
			t.Fatalf("%s: panicked: %v / %v", cfg.Name, a.panicked, b.panicked)
		}
		if a.fp != b.fp || a.checksum != b.checksum || a.stats != b.stats {
			t.Fatalf("%s: two executions disagree: fp %s/%s sum %s/%s",
				cfg.Name, fmtHash(a.fp), fmtHash(b.fp), fmtHash(a.checksum), fmtHash(b.checksum))
		}
	}
}
