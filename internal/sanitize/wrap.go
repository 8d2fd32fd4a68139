package sanitize

import (
	"fmt"
	"strings"

	"tilgc/internal/core"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// Wrapper decorates a Collector with automatic integrity checking: after
// any operation that completed one or more collections (Alloc may trigger
// them internally), every invariant pass re-verifies the heap. The wrapper
// delegates Name, Stats, and all cost-charged operations unchanged, so a
// sanitized run produces byte-identical tables to an unwrapped one.
//
// The wrapper keeps one scratch (classification sets, traversal state,
// root buffer, per-space walk memo) and reuses it across its checks, so
// a check after every collection does not rebuild that storage each
// time; each check resets it before use.
type Wrapper struct {
	inner       core.Collector
	onViolation func([]Violation)
	lastGC      uint64 // inner NumGC at the last check boundary
	checks      uint64 // total checks performed
	sc          scratch
}

// Wrap decorates c with the sanitizer. The collector must be inspectable
// (all collectors in internal/core are); if it is not, every check reports
// a single "inspect" violation rather than silently passing.
//
// onViolation receives the violations of one failed automatic check. When
// nil, a failed check panics with the rendered violations — the loudest
// possible signal that a collector invariant broke mid-run.
func Wrap(c core.Collector, onViolation func([]Violation)) *Wrapper {
	return &Wrapper{inner: c, onViolation: onViolation, lastGC: c.Stats().NumGC}
}

// Unwrap returns the decorated collector.
func (w *Wrapper) Unwrap() core.Collector { return w.inner }

// Checks returns the number of integrity checks performed so far.
func (w *Wrapper) Checks() uint64 { return w.checks }

// Check runs every pass immediately and returns the violations (nil when
// clean) without invoking the violation hook or panicking — the on-demand
// entry point for tests and tools.
func (w *Wrapper) Check() []Violation {
	w.checks++
	return check(w.inner, &w.sc)
}

// afterOp runs the automatic check when an operation completed a
// collection.
func (w *Wrapper) afterOp() {
	n := w.inner.Stats().NumGC
	if n == w.lastGC {
		return
	}
	w.lastGC = n
	w.checks++
	vs := check(w.inner, &w.sc)
	if len(vs) == 0 {
		return
	}
	if w.onViolation != nil {
		w.onViolation(vs)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sanitize: %d violation(s) in %s after GC %d:", len(vs), w.inner.Name(), n)
	for _, v := range vs {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	panic(b.String())
}

// Alloc implements core.Collector.
func (w *Wrapper) Alloc(k obj.Kind, length uint64, site obj.SiteID, mask uint64) mem.Addr {
	a := w.inner.Alloc(k, length, site, mask)
	w.afterOp()
	return a
}

// LoadField implements core.Collector.
func (w *Wrapper) LoadField(a mem.Addr, i uint64) uint64 {
	return w.inner.LoadField(a, i)
}

// StoreField implements core.Collector.
func (w *Wrapper) StoreField(a mem.Addr, i uint64, v uint64, isPtr bool) {
	w.inner.StoreField(a, i, v, isPtr)
}

// InitField implements core.Collector.
func (w *Wrapper) InitField(a mem.Addr, i uint64, v uint64) {
	w.inner.InitField(a, i, v)
}

// Collect implements core.Collector.
func (w *Wrapper) Collect(major bool) {
	w.inner.Collect(major)
	w.afterOp()
}

// Stats implements core.Collector.
func (w *Wrapper) Stats() *core.GCStats { return w.inner.Stats() }

// Heap implements core.Collector.
func (w *Wrapper) Heap() *mem.Heap { return w.inner.Heap() }

// Threads implements core.Collector: the decorated collector's set, so a
// scheduler driving the wrapper spawns and switches the threads it scans.
func (w *Wrapper) Threads() *rt.ThreadSet { return w.inner.Threads() }

// Name implements core.Collector: the inner name, unchanged, so rendered
// tables are identical with and without the sanitizer.
func (w *Wrapper) Name() string { return w.inner.Name() }

// Inspect delegates to the decorated collector so Check and nested
// tooling see through the wrapper.
func (w *Wrapper) Inspect() core.Inspection {
	return w.inner.(core.Inspectable).Inspect()
}
