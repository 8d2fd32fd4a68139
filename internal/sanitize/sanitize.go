// Package sanitize is the heap-integrity sanitizer: a set of invariant
// passes that independently re-derive what the collectors claim about the
// heap and report any disagreement. The passes mirror the correctness
// arguments the paper's design rests on — no from-space survivors after
// evacuation, remembered-set completeness for old-to-young edges (§2.1,
// §4), stack-marker/frame consistency (§5), and pretenured-region
// soundness (§6, §7.2) — plus structural header checks and cost-meter
// reconciliation.
//
// Use Check for an on-demand scan of any inspectable collector, or Wrap to
// decorate a collector so the passes run automatically after every
// collection (see gcbench -sanitize and harness.RunConfig.Sanitize).
// The sanitizer only reads collector state; a wrapped run produces
// bit-for-bit the same tables as an unwrapped one.
package sanitize

import (
	"fmt"
	"strings"

	"tilgc/internal/core"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// Violation reports one invariant breach with enough context to locate it.
type Violation struct {
	// Pass names the invariant pass that fired: headers, fromspace,
	// remembered, markers, pretenure, oldbitmap, freelist, costs,
	// workers, or inspect when the collector cannot be inspected.
	Pass string
	// Addr is the offending object or field address (Nil when the
	// violation is not tied to a heap location).
	Addr mem.Addr
	// Site is the allocation site of the object involved, when known.
	Site obj.SiteID
	// Gen locates the violation: "young", "old", "los", "stack", or ""
	// for collector-global invariants.
	Gen string
	// Msg describes the breach.
	Msg string
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]", v.Pass)
	if v.Gen != "" {
		fmt.Fprintf(&b, " %s", v.Gen)
	}
	if !v.Addr.IsNil() {
		fmt.Fprintf(&b, " %v", v.Addr)
	}
	if v.Site != 0 {
		fmt.Fprintf(&b, " site=%d", v.Site)
	}
	fmt.Fprintf(&b, ": %s", v.Msg)
	return b.String()
}

// passes lists every invariant pass in execution order.
var passes = []func(*checker){
	(*checker).checkHeaders,
	(*checker).checkFromspace,
	(*checker).checkRemembered,
	(*checker).checkMarkers,
	(*checker).checkPretenure,
	(*checker).checkOldBitmap,
	(*checker).checkOldFreeList,
	(*checker).checkCosts,
	(*checker).checkWorkers,
}

// Check runs every invariant pass against the collector's current state
// and returns the violations found (nil when the heap is clean). The
// collector must be between collections. Wrapped collectors are unwrapped
// first.
func Check(c core.Collector) []Violation {
	return check(c, new(scratch))
}

// check is Check over caller-owned working storage: a Wrapper passes the
// scratch it keeps across its checks, Check a fresh one.
func check(c core.Collector, sc *scratch) []Violation {
	if w, ok := c.(*Wrapper); ok {
		c = w.Unwrap()
	}
	insp, ok := c.(core.Inspectable)
	if !ok {
		return []Violation{{Pass: "inspect",
			Msg: fmt.Sprintf("collector %T does not support inspection", c)}}
	}
	ck := newChecker(insp.Inspect(), sc)
	for _, run := range passes {
		run(ck)
	}
	return ck.violations
}

// scratch is the working storage of one check: the space classification
// sets, the traversal state, the stack-root buffer, and a memo of each
// space's object walk. The heap does not change during a check, so the
// passes share one decode per space instead of walking it once each. A
// Wrapper keeps one scratch across its checks; reset empties every part,
// so nothing one check saw can reach the next.
type scratch struct {
	young, old, los map[mem.SpaceID]bool
	seen            map[mem.Addr]bool
	reach           map[uint64]bool
	queue           []mem.Addr
	roots           []uint64
	// walks maps a space id to its memoized walk, objs[lo:hi].
	walks map[mem.SpaceID][2]int
	objs  []obj.Object
	// free indexes the old generation's free spans by start offset,
	// built on first use in a check.
	free map[uint64]uint64
}

// reset empties the scratch for a new check.
func (sc *scratch) reset() {
	if sc.young == nil {
		sc.young = make(map[mem.SpaceID]bool)
		sc.old = make(map[mem.SpaceID]bool)
		sc.los = make(map[mem.SpaceID]bool)
		sc.seen = make(map[mem.Addr]bool)
		sc.reach = make(map[uint64]bool)
		sc.walks = make(map[mem.SpaceID][2]int)
		sc.free = make(map[uint64]uint64)
	}
	clear(sc.young)
	clear(sc.old)
	clear(sc.los)
	clear(sc.walks)
	clear(sc.free)
	sc.objs = sc.objs[:0]
}

// checker carries one check's state: the collector snapshot, the scratch
// holding the space classification and traversal storage, and the
// violations accumulated so far.
type checker struct {
	in core.Inspection
	*scratch
	violations []Violation
}

func newChecker(in core.Inspection, sc *scratch) *checker {
	sc.reset()
	for _, id := range in.YoungSpaces {
		sc.young[id] = true
	}
	for _, id := range in.OldSpaces {
		sc.old[id] = true
	}
	for _, id := range in.LOSSpaces {
		sc.los[id] = true
	}
	return &checker{in: in, scratch: sc}
}

func (ck *checker) report(v Violation) {
	ck.violations = append(ck.violations, v)
}

// genOf classifies a space id for violation context.
func (ck *checker) genOf(id mem.SpaceID) string {
	switch {
	case ck.young[id]:
		return "young"
	case ck.old[id]:
		return "old"
	case ck.los[id]:
		return "los"
	}
	return ""
}

// isLive reports whether a space may legally hold live objects.
func (ck *checker) isLive(id mem.SpaceID) bool {
	return ck.young[id] || ck.old[id] || ck.los[id]
}

// eachRootStack visits every stack whose frames are live roots: the live
// threads' stacks in thread-id order. Dead (joined) threads' stacks are
// excluded — their frames no longer keep anything alive.
func (ck *checker) eachRootStack(fn func(threadID int, st *rt.Stack)) {
	for _, t := range ck.in.Threads.Threads() {
		if t.Dead() {
			continue
		}
		fn(t.ID(), t.Stack())
	}
}

// walkRange appends to dst the objects tiling words [start, end) of
// space id, stopping early (without reporting) at a forwarded or
// malformed header — the headers pass owns reporting those, so other
// passes just see the well-formed prefix.
func (ck *checker) walkRange(dst []obj.Object, id mem.SpaceID, start, end uint64) []obj.Object {
	if ck.in.Heap.Space(id) == nil {
		return dst
	}
	off := start
	for off < end {
		a := mem.MakeAddr(id, off)
		if obj.HeaderKind(ck.in.Heap.Load(a)) == obj.Forwarded {
			return dst
		}
		o := obj.Decode(ck.in.Heap, a)
		if o.Kind == obj.Record && o.Len > obj.MaxRecordFields {
			return dst
		}
		size := o.SizeWords()
		if off+size > end {
			return dst
		}
		dst = append(dst, o)
		off += size
	}
	return dst
}

// walkSpace decodes every object in a linearly-allocated space, once per
// check: later calls for the same space return the memoized walk. The
// result is read-only and valid until the check ends.
func (ck *checker) walkSpace(id mem.SpaceID) []obj.Object {
	if w, ok := ck.walks[id]; ok {
		return ck.objs[w[0]:w[1]:w[1]]
	}
	sp := ck.in.Heap.Space(id)
	if sp == nil {
		return nil
	}
	lo := len(ck.objs)
	ck.objs = ck.walkRange(ck.objs, id, 1, sp.Used()+1)
	hi := len(ck.objs)
	ck.walks[id] = [2]int{lo, hi}
	return ck.objs[lo:hi:hi]
}
