package fuzz

import (
	"bytes"
	"fmt"
	"io"

	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/harness"
	"tilgc/internal/prof"
	"tilgc/internal/sanitize"
	"tilgc/internal/trace"
)

// FailKind classifies an oracle failure.
type FailKind string

const (
	// FailCrash is a panic (in the collector, runtime, or interpreter).
	FailCrash FailKind = "crash"
	// FailSanitizer is a heap-integrity violation from internal/sanitize.
	FailSanitizer FailKind = "sanitizer"
	// FailTrace is a trace reconcile or validation error.
	FailTrace FailKind = "trace"
	// FailRunTwice is a same-config re-run that produced different
	// results (fingerprint, checksum, stats, or trace bytes).
	FailRunTwice FailKind = "run-twice"
	// FailWrapper is a sanitized+traced run that differed client-visibly
	// from a plain run of the same configuration.
	FailWrapper FailKind = "wrapper"
	// FailDivergence is a cross-config client-visible difference.
	FailDivergence FailKind = "divergence"
)

// Failure is one oracle violation, addressable by (seed, config, kind).
type Failure struct {
	Seed   uint64
	Config string
	Kind   FailKind
	Detail string
}

// String renders the failure for reports.
func (f Failure) String() string {
	return fmt.Sprintf("seed %d [%s] %s: %s", f.Seed, f.Config, f.Kind, f.Detail)
}

// runOutput carries everything one execution exposes to the oracles.
type runOutput struct {
	fp       uint64
	checksum uint64
	stats    core.GCStats
	traceRaw []byte
	sanViol  []string
	panicked any            // recovered panic value, nil when clean
	traceErr error          // VerifyReconciled / Validate error
	prof     *prof.Profiler // finalized profiler of a traced or adapt run
}

// execute runs the program once under cfg. traced attaches the
// recorder and captures the trace JSONL bytes in traceRaw (nil on a
// trace error); sanitized wraps the collector with every invariant pass
// after every collection, collecting violations instead of panicking.
func execute(p *Program, cfg Config, traced, sanitized bool) runOutput {
	if !traced {
		return executeTo(p, cfg, sanitized, nil)
	}
	var buf bytes.Buffer
	out := executeTo(p, cfg, sanitized, &buf)
	if out.panicked == nil && out.traceErr == nil {
		out.traceRaw = buf.Bytes()
	}
	return out
}

// executeTo is execute with the trace JSONL streamed to traceTo; a nil
// traceTo runs untraced. traceRaw is left nil.
func executeTo(p *Program, cfg Config, sanitized bool, traceTo io.Writer) (out runOutput) {
	traced := traceTo != nil
	defer func() {
		if r := recover(); r != nil {
			out.panicked = r
		}
	}()

	spec := harness.Spec{Sites: siteNames, Trace: traced, Collector: core.Config{
		Semispace:        cfg.Semispace,
		BudgetWords:      budgetFor(p),
		LargeObjectWords: largeObjectWords,
		MarkerN:          cfg.MarkerN,
		AgingMinors:      cfg.AgingMinors,
		CardTable:        cfg.Cards,
		OldCollector:     cfg.Old,
		GCWorkers:        cfg.Workers,
	}}
	if cfg.Semispace {
		spec.Collector.InitialWords = nurseryWords * 4
	} else {
		spec.Collector.NurseryWords = nurseryWords
	}
	if cfg.Pretenure {
		spec.Collector.Pretenure = pretenurePolicy()
	}
	if cfg.Adapt {
		// Small mass thresholds so decisions actually flip inside a few
		// hundred ops' worth of allocation.
		spec.Adapt = &adapt.Params{MinSampleWords: 64, MinOldWords: 64, CooldownEpochs: 2}
	}
	sim := harness.Build(spec)
	col := sim.Col
	if cfg.wrap != nil {
		col = cfg.wrap(col)
	}
	if sanitized {
		col = sanitize.Wrap(col, sanitize.Options{
			OnViolation: func(vs []sanitize.Violation) {
				for _, v := range vs {
					out.sanViol = append(out.sanViol, v.String())
				}
			},
		})
	}

	in := newInterp(col, sim.Table, sim.Meter)
	in.run(p)

	err := sim.Finish()
	out.prof = sim.Profiler
	out.fp = fingerprint(col, rootStacks(col.Threads()))
	out.checksum = in.checksum
	out.stats = *col.Stats()
	if err != nil {
		out.traceErr = err
		return out
	}
	if sim.Rec != nil {
		f := trace.NewFile(sim.Rec.Data(cfg.Name))
		if err := f.WriteJSONL(traceTo); err != nil {
			out.traceErr = err
			return out
		}
		if err := f.Validate(); err != nil {
			out.traceErr = err
		}
	}
	return out
}

// traceComparer is the io.Writer the run-twice oracle streams the second
// run's trace JSONL into: it compares each write against the first run's
// bytes instead of buffering a second copy. It accepts every write, so a
// mismatch is a verdict, never a trace-encoding error.
type traceComparer struct {
	want []byte
	n    int  // bytes written so far
	diff bool // a written byte differed from want, or ran past its end
}

// Write implements io.Writer. While no byte has differed, n <= len(want).
func (c *traceComparer) Write(p []byte) (int, error) {
	if !c.diff {
		rest := c.want[c.n:]
		c.diff = len(p) > len(rest) || !bytes.Equal(p, rest[:len(p)])
	}
	c.n += len(p)
	return len(p), nil
}

// equal reports whether the bytes written so far are exactly want.
func (c *traceComparer) equal() bool { return !c.diff && c.n == len(c.want) }

// checkConfig runs every per-config oracle for one matrix entry and
// returns (failures, primary output, plain output). The primary output
// is only meaningful when the run did not crash; a crashed run skips the
// plain run and returns the primary output in its place.
func checkConfig(p *Program, cfg Config) ([]Failure, runOutput, runOutput) {
	fail := func(kind FailKind, format string, args ...any) Failure {
		return Failure{Seed: p.Seed, Config: cfg.Name, Kind: kind,
			Detail: fmt.Sprintf(format, args...)}
	}
	var fails []Failure

	out := execute(p, cfg, true, true)
	if out.panicked != nil {
		return append(fails, fail(FailCrash, "%v", out.panicked)), out, out
	}
	if len(out.sanViol) > 0 {
		f := fail(FailSanitizer, "%d violation(s): %s", len(out.sanViol), out.sanViol[0])
		fails = append(fails, f)
	}
	if out.traceErr != nil {
		fails = append(fails, fail(FailTrace, "%v", out.traceErr))
	}

	// Run-twice byte-identity under the identical configuration. The
	// second run streams its trace through a comparer against the first
	// run's bytes rather than buffering a copy. A run whose trace errored
	// has no bytes, so the verdict is the one a buffered comparison gives.
	cmp := traceComparer{want: out.traceRaw}
	out2 := executeTo(p, cfg, true, &cmp)
	sameTrace := cmp.equal()
	if out2.traceErr != nil {
		sameTrace = len(out.traceRaw) == 0
	}
	switch {
	case out2.panicked != nil:
		fails = append(fails, fail(FailRunTwice, "second run panicked: %v", out2.panicked))
	case out2.fp != out.fp:
		fails = append(fails, fail(FailRunTwice, "fingerprint %s vs %s", fmtHash(out.fp), fmtHash(out2.fp)))
	case out2.checksum != out.checksum:
		fails = append(fails, fail(FailRunTwice, "checksum %s vs %s", fmtHash(out.checksum), fmtHash(out2.checksum)))
	case out2.stats != out.stats:
		fails = append(fails, fail(FailRunTwice, "GC stats differ: %+v vs %+v", out.stats, out2.stats))
	case !sameTrace:
		fails = append(fails, fail(FailRunTwice, "trace JSONL bytes differ"))
	}

	// Wrapper transparency: sanitizer + recorder must not perturb the
	// client-visible outcome.
	plain := execute(p, cfg, false, false)
	switch {
	case plain.panicked != nil:
		fails = append(fails, fail(FailWrapper, "plain run panicked: %v", plain.panicked))
	case plain.fp != out.fp:
		fails = append(fails, fail(FailWrapper, "plain fingerprint %s vs wrapped %s", fmtHash(plain.fp), fmtHash(out.fp)))
	case plain.checksum != out.checksum:
		fails = append(fails, fail(FailWrapper, "plain checksum %s vs wrapped %s", fmtHash(plain.checksum), fmtHash(out.checksum)))
	}

	return fails, out, plain
}

// CheckProgram runs the program across cfgs (nil means the standard
// Matrix) and returns every oracle failure. The first configuration is
// the cross-config baseline.
func CheckProgram(p *Program, cfgs []Config) []Failure {
	fails, _ := checkProgram(p, cfgs)
	return fails
}

// checkProgram is CheckProgram that also returns the first
// configuration's plain output, which is its primary output instead when
// that configuration crashed.
func checkProgram(p *Program, cfgs []Config) ([]Failure, runOutput) {
	if cfgs == nil {
		cfgs = Matrix()
	}
	var fails []Failure
	haveBase := false
	var baseOut, first runOutput
	var baseName string
	for i, cfg := range cfgs {
		cfgFails, out, plain := checkConfig(p, cfg)
		if i == 0 {
			first = plain
		}
		fails = append(fails, cfgFails...)
		if out.panicked != nil {
			continue // a crash, already reported
		}
		if !haveBase {
			haveBase, baseOut, baseName = true, out, cfg.Name
			continue
		}
		if out.fp != baseOut.fp {
			fails = append(fails, Failure{Seed: p.Seed, Config: cfg.Name, Kind: FailDivergence,
				Detail: fmt.Sprintf("fingerprint %s, baseline %s has %s",
					fmtHash(out.fp), baseName, fmtHash(baseOut.fp))})
		} else if out.checksum != baseOut.checksum {
			fails = append(fails, Failure{Seed: p.Seed, Config: cfg.Name, Kind: FailDivergence,
				Detail: fmt.Sprintf("checksum %s, baseline %s has %s",
					fmtHash(out.checksum), baseName, fmtHash(baseOut.checksum))})
		}
	}
	return fails, first
}

// SeedResult summarizes one seed's differential check.
type SeedResult struct {
	Seed     uint64
	Profile  Profile
	FP       uint64 // baseline-config fingerprint
	Checksum uint64 // baseline-config client checksum
	Failures []Failure
}

// CheckSeed generates the seed's program and checks it across the
// standard matrix, also capturing the baseline config's fingerprint and
// checksum for the sweep report from the plain run the check made.
func CheckSeed(seed uint64) SeedResult {
	p := Generate(seed)
	res := SeedResult{Seed: seed, Profile: ProfileOf(seed)}
	cfgs := Matrix()
	var base runOutput
	res.Failures, base = checkProgram(p, cfgs)
	if base.panicked != nil {
		// The baseline crashed before its plain run, or in it: run it
		// alone, as the report always has.
		base = execute(p, cfgs[0], false, false)
	}
	if base.panicked == nil {
		res.FP = base.fp
		res.Checksum = base.checksum
	}
	return res
}
