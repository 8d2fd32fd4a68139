package sanitize

import (
	"fmt"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// checkHeaders validates structural well-formedness: every live space
// holds a gap-free tiling of decodable objects, no forwarding headers
// survive outside a collection, record lengths and pointer masks are in
// range, and each large-object space holds exactly one object.
func (ck *checker) checkHeaders() {
	for _, id := range ck.in.YoungSpaces {
		ck.validateSpace(id, "young")
	}
	for _, id := range ck.in.OldSpaces {
		ck.validateSpace(id, "old")
	}
	for _, id := range ck.in.LOSSpaces {
		if n := ck.validateSpace(id, "los"); n != 1 {
			ck.report(Violation{Pass: "headers", Gen: "los",
				Addr: mem.MakeAddr(id, 1),
				Msg:  fmt.Sprintf("large-object space %d holds %d objects, want exactly 1", id, n)})
		}
	}
}

// validateSpace walks one space reporting malformed headers; it returns
// the number of objects found before stopping.
func (ck *checker) validateSpace(id mem.SpaceID, gen string) int {
	sp := ck.in.Heap.Space(id)
	if sp == nil {
		ck.report(Violation{Pass: "headers", Gen: gen,
			Msg: fmt.Sprintf("space %d is classified live but has been freed", id)})
		return 0
	}
	count := 0
	off := uint64(1)
	for off <= sp.Used() {
		a := mem.MakeAddr(id, off)
		hd := ck.in.Heap.Load(a)
		if obj.HeaderKind(hd) == obj.Forwarded {
			ck.report(Violation{Pass: "headers", Gen: gen, Addr: a,
				Msg: "forwarding header present outside a collection"})
			return count
		}
		o := obj.Decode(ck.in.Heap, a)
		if o.Kind == obj.Record {
			if o.Len > obj.MaxRecordFields {
				ck.report(Violation{Pass: "headers", Gen: gen, Addr: a, Site: o.Site,
					Msg: fmt.Sprintf("record length %d exceeds max %d", o.Len, obj.MaxRecordFields)})
				return count
			}
			if o.Len < 64 && o.Mask>>o.Len != 0 {
				ck.report(Violation{Pass: "headers", Gen: gen, Addr: a, Site: o.Site,
					Msg: fmt.Sprintf("pointer mask %#x has bits at/beyond length %d", o.Mask, o.Len)})
			}
		}
		size := o.SizeWords()
		if off+size > sp.Used()+1 {
			ck.report(Violation{Pass: "headers", Gen: gen, Addr: a, Site: o.Site,
				Msg: fmt.Sprintf("object of %d words overruns allocation frontier (offset %d, used %d)",
					size, off, sp.Used())})
			return count
		}
		count++
		off += size
	}
	return count
}

// checkFromspace verifies that everything reachable from the independently
// re-derived stack roots lies in live, allocated space with no stale
// forwarding headers — i.e. no from-space pointer survived an evacuation.
func (ck *checker) checkFromspace() {
	heap := ck.in.Heap
	seen := ck.seen
	clear(seen)
	queue := ck.queue[:0]

	checkPtr := func(v uint64, gen string, from mem.Addr) {
		a := mem.Addr(v)
		if a.IsNil() {
			return
		}
		id := a.Space()
		// Lazy: this pass visits every reachable pointer on every check,
		// so the location string must only be built on a violation.
		where := func() string {
			if from.IsNil() {
				return "stack root"
			}
			return fmt.Sprintf("field %v", from)
		}
		if int(id) <= 0 || int(id) >= heap.NumSpaces() {
			ck.report(Violation{Pass: "fromspace", Gen: gen, Addr: a,
				Msg: fmt.Sprintf("%s points to unknown space %d", where(), id)})
			return
		}
		if !ck.isLive(id) {
			ck.report(Violation{Pass: "fromspace", Gen: gen, Addr: a,
				Msg: fmt.Sprintf("%s points into non-live (from-)space %d", where(), id)})
			return
		}
		sp := heap.Space(id)
		if sp == nil {
			ck.report(Violation{Pass: "fromspace", Gen: gen, Addr: a,
				Msg: fmt.Sprintf("%s points into freed space %d", where(), id)})
			return
		}
		if !sp.Contains(a) {
			ck.report(Violation{Pass: "fromspace", Gen: gen, Addr: a,
				Msg: fmt.Sprintf("%s points past space %d's allocation frontier", where(), id)})
			return
		}
		if obj.IsForwarded(heap, a) {
			ck.report(Violation{Pass: "fromspace", Gen: gen, Addr: a,
				Msg: fmt.Sprintf("%s reaches a stale forwarded object", where())})
			return
		}
		if !seen[a] {
			seen[a] = true
			queue = append(queue, a)
		}
	}

	ck.eachRootStack(func(_ int, st *rt.Stack) {
		ck.roots = stackRoots(ck.roots[:0], st)
		for _, v := range ck.roots {
			checkPtr(v, "stack", mem.Nil)
		}
	})
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		o := obj.Decode(heap, a)
		if o.Kind == obj.RawArray || (o.Kind == obj.Record && o.Len > obj.MaxRecordFields) {
			continue // malformed records are the headers pass's report
		}
		gen := ck.genOf(a.Space())
		for i := uint64(0); i < o.Len; i++ {
			if !o.IsPtrField(i) {
				continue
			}
			checkPtr(heap.Load(o.PayloadAddr(i)), gen, o.PayloadAddr(i))
		}
	}
	ck.queue = queue
}

// checkRemembered verifies remembered-set completeness for generational
// collectors: every old-to-young pointer field found by a full independent
// walk of the old generation and the LOS must be covered by the write
// barrier (SSB entry or dirty card), the sticky old-to-aging set, a fresh
// large object (scanned unconditionally at the next minor), or a
// pretenured region (ditto). An uncovered edge is an object the next minor
// collection would wrongly reclaim or fail to forward.
func (ck *checker) checkRemembered() {
	if !ck.in.Generational {
		return
	}
	heap := ck.in.Heap

	// Without a card table the barrier state is the union of every
	// thread's SSB — dead threads included: their pre-join stores are
	// still pending remembered-set entries.
	ssbSet := make(map[mem.Addr]bool)
	if ck.in.Cards == nil {
		for _, t := range ck.in.Threads.Threads() {
			for _, fa := range t.SSB().Entries() {
				ssbSet[fa] = true
			}
		}
	}
	stickySet := make(map[mem.Addr]bool, len(ck.in.Sticky))
	for _, fa := range ck.in.Sticky {
		stickySet[fa] = true
	}
	type span struct {
		space      mem.SpaceID
		start, end uint64
	}
	var spans []span
	for _, a := range ck.in.FreshLOS {
		spans = append(spans, span{a.Space(), a.Offset(),
			a.Offset() + obj.Decode(heap, a).SizeWords()})
	}
	for _, r := range ck.in.PretenuredRegions {
		spans = append(spans, span{r.Space, r.Start, r.End})
	}
	covered := func(fa mem.Addr) bool {
		if ck.in.Cards != nil && ck.in.Cards.Covers(fa) {
			return true
		}
		if ssbSet[fa] || stickySet[fa] {
			return true
		}
		for _, s := range spans {
			if fa.Space() == s.space && fa.Offset() >= s.start && fa.Offset() < s.end {
				return true
			}
		}
		return false
	}

	checkObj := func(o obj.Object, gen string) {
		if o.Kind == obj.RawArray {
			return
		}
		for i := uint64(0); i < o.Len; i++ {
			if !o.IsPtrField(i) {
				continue
			}
			fa := o.PayloadAddr(i)
			v := mem.Addr(heap.Load(fa))
			if v.IsNil() || !ck.young[v.Space()] {
				continue
			}
			if !covered(fa) {
				ck.report(Violation{Pass: "remembered", Gen: gen, Addr: fa, Site: o.Site,
					Msg: fmt.Sprintf("old-to-young edge to %v not covered by barrier, sticky set, fresh LOS, or pretenured region", v)})
			}
		}
	}
	for _, id := range ck.in.OldSpaces {
		for _, o := range ck.walkSpace(id) {
			checkObj(o, "old")
		}
	}
	for _, id := range ck.in.LOSSpaces {
		for _, o := range ck.walkSpace(id) {
			checkObj(o, "los")
		}
	}
}

// checkMarkers verifies the stack's frame chain and marker bookkeeping
// (§5): frame bases tile the slot array, every stored return key names the
// caller's layout, every marker stub has a marker-table entry holding the
// displaced key, and no stub exists when markers are disabled. Marker
// entries without a live stub are legal — raises pop marked frames without
// firing stubs, and ReuseBoundary prunes those entries lazily.
func (ck *checker) checkMarkers() {
	ck.eachRootStack(func(id int, st *rt.Stack) { ck.checkMarkersStack(id, st) })
}

// checkMarkersStack validates one thread's frame chain and markers.
func (ck *checker) checkMarkersStack(threadID int, st *rt.Stack) {
	gen := "stack"
	if threadID > 0 {
		gen = fmt.Sprintf("stack[t%d]", threadID)
	}
	table := st.Table()
	depth := st.FrameCount()
	expectedBase := 0
	for i := 0; i < depth; i++ {
		base := st.FrameBase(i)
		if base != expectedBase {
			ck.report(Violation{Pass: "markers", Gen: gen,
				Msg: fmt.Sprintf("frame %d base %d, want %d (frames do not tile the slot array)", i, base, expectedBase)})
			return
		}
		fi := table.Lookup(st.FrameKey(i))
		if fi == nil {
			ck.report(Violation{Pass: "markers", Gen: gen,
				Msg: fmt.Sprintf("frame %d has no trace-table layout (key %d)", i, st.FrameKey(i))})
			return
		}
		expectedBase = base + fi.Size

		want := rt.RetKey(0)
		if i > 0 {
			want = st.FrameKey(i - 1)
		}
		raw := rt.RetKey(st.RawSlot(base))
		if raw == rt.StubKey {
			if ck.in.MarkerN == 0 {
				ck.report(Violation{Pass: "markers", Gen: gen,
					Msg: fmt.Sprintf("frame %d carries a marker stub but stack markers are disabled", i)})
			}
			m, ok := st.MarkerAt(base)
			switch {
			case !ok:
				ck.report(Violation{Pass: "markers", Gen: gen,
					Msg: fmt.Sprintf("frame %d has a stub return key with no marker-table entry (return would panic)", i)})
			case m.OrigKey != want:
				ck.report(Violation{Pass: "markers", Gen: gen,
					Msg: fmt.Sprintf("frame %d marker displaced key %d, want caller key %d", i, m.OrigKey, want)})
			}
		} else if raw != want {
			ck.report(Violation{Pass: "markers", Gen: gen,
				Msg: fmt.Sprintf("frame %d stored return key %d, want caller key %d", i, raw, want)})
		}
	}
	if depth > 0 && st.SP() != expectedBase {
		ck.report(Violation{Pass: "markers", Gen: gen,
			Msg: fmt.Sprintf("stack pointer %d, want %d (top frame size mismatch)", st.SP(), expectedBase)})
	}
}

// checkPretenure verifies pretenured-region and LOS soundness: regions
// hold only objects from policy-tenured sites (a wrong-site object is the
// silent misclassification NG2C-style systems suffer), scan-elided sites
// really have no young references, and every LOS resident is a
// large-enough non-record.
func (ck *checker) checkPretenure() {
	heap := ck.in.Heap
	for _, r := range ck.in.PretenuredRegions {
		lo := len(ck.objs)
		ck.objs = ck.walkRange(ck.objs, r.Space, r.Start, r.End)
		for _, o := range ck.objs[lo:] {
			d, ok := ck.in.Policy.Lookup(o.Site)
			if !ok {
				ck.report(Violation{Pass: "pretenure", Gen: "old", Addr: o.Addr, Site: o.Site,
					Msg: "object in pretenured region from a site the policy did not tenure"})
				continue
			}
			if !ck.in.ScanElision || !d.OnlyOldRefs || o.Kind == obj.RawArray {
				continue
			}
			// §7.2: elided sites assert they never hold young references;
			// a young pointer here would be missed by the minor scan.
			for i := uint64(0); i < o.Len; i++ {
				if !o.IsPtrField(i) {
					continue
				}
				v := mem.Addr(heap.Load(o.PayloadAddr(i)))
				if !v.IsNil() && ck.young[v.Space()] {
					ck.report(Violation{Pass: "pretenure", Gen: "old", Addr: o.PayloadAddr(i), Site: o.Site,
						Msg: fmt.Sprintf("scan-elided (OnlyOldRefs) object holds young reference %v", v)})
				}
			}
		}
	}
	for _, id := range ck.in.LOSSpaces {
		for _, o := range ck.walkSpace(id) {
			if o.Kind == obj.Record {
				ck.report(Violation{Pass: "pretenure", Gen: "los", Addr: o.Addr, Site: o.Site,
					Msg: "record object in the large-object space (only arrays are LOS-allocated)"})
			}
			if ck.in.LargeObjectWords > 0 && o.Len < ck.in.LargeObjectWords {
				ck.report(Violation{Pass: "pretenure", Gen: "los", Addr: o.Addr, Site: o.Site,
					Msg: fmt.Sprintf("LOS object of %d payload words is below the %d-word threshold", o.Len, ck.in.LargeObjectWords)})
			}
		}
	}
}

// checkCosts reconciles the cost meter and GC statistics with each other:
// totals must decompose, and the collector-side meter buckets must be at
// least the cost implied by the per-event constants times the event counts
// the stats record. The bounds are lower bounds — collections charge more
// (scan tests, SSB entries, watermark checks) — so they hold exactly when
// the accounting is wired correctly and fail when a charge or a counter is
// dropped.
func (ck *checker) checkCosts() {
	st := ck.in.Stats
	if st.BytesAllocated != st.RecordBytes+st.ArrayBytes {
		ck.report(Violation{Pass: "costs",
			Msg: fmt.Sprintf("BytesAllocated %d != RecordBytes %d + ArrayBytes %d",
				st.BytesAllocated, st.RecordBytes, st.ArrayBytes)})
	}
	if st.NumMajor > st.NumGC {
		ck.report(Violation{Pass: "costs",
			Msg: fmt.Sprintf("NumMajor %d exceeds NumGC %d", st.NumMajor, st.NumGC)})
	}
	if st.MaxPauseCycles > st.SumPauseCycles {
		ck.report(Violation{Pass: "costs",
			Msg: fmt.Sprintf("MaxPauseCycles %d exceeds SumPauseCycles %d", st.MaxPauseCycles, st.SumPauseCycles)})
	}
	if st.BytesCopied%mem.WordSize != 0 {
		ck.report(Violation{Pass: "costs",
			Msg: fmt.Sprintf("BytesCopied %d is not word-aligned", st.BytesCopied)})
	}
	if st.BytesCopied < mem.WordSize*st.ObjectsCopied {
		ck.report(Violation{Pass: "costs",
			Msg: fmt.Sprintf("BytesCopied %d below minimum %d for %d copied objects",
				st.BytesCopied, mem.WordSize*st.ObjectsCopied, st.ObjectsCopied)})
	}
	if ck.in.Meter == nil {
		return
	}
	// Under parallel collection the meter's GC buckets hold wall cycles:
	// the hidden sum-minus-max worker cycles were credited out into the
	// overlap counter, so the honest total the statistics imply is bucket
	// plus overlap. Serial runs have zero overlap and the bound is exact.
	gcCopy := ck.in.Meter.Get(costmodel.GCCopy) + ck.in.Meter.Overlap()
	minCopy := costmodel.GCOverhead*costmodel.Cycles(st.NumGC) +
		costmodel.CopyObject*costmodel.Cycles(st.ObjectsCopied) +
		costmodel.CopyWord*costmodel.Cycles(st.BytesCopied/mem.WordSize) +
		costmodel.ScanWord*costmodel.Cycles(st.BytesScanned/mem.WordSize)
	if gcCopy < minCopy {
		ck.report(Violation{Pass: "costs",
			Msg: fmt.Sprintf("gc-copy meter %d cycles below the %d implied by copy/scan statistics", gcCopy, minCopy)})
	}
	gcStack := ck.in.Meter.Get(costmodel.GCStack) + ck.in.Meter.Overlap()
	minStack := costmodel.FrameDecode*costmodel.Cycles(st.FramesDecoded) +
		costmodel.MarkerPlace*costmodel.Cycles(st.MarkersPlaced)
	if gcStack < minStack {
		ck.report(Violation{Pass: "costs",
			Msg: fmt.Sprintf("gc-stack meter %d cycles below the %d implied by decode/marker statistics", gcStack, minStack)})
	}
}

// checkWorkers validates the parallel-collection accounting: a serial
// collector (W <= 1) must carry no worker state at all — zero overlap,
// zero quanta, zero steals — and a parallel one must keep its counters
// mutually consistent: steals are a subset of quanta, and overlap (the
// cycles hidden by running workers concurrently) can only exist once
// quanta have been distributed.
func (ck *checker) checkWorkers() {
	st := ck.in.Stats
	overlap := costmodel.Cycles(0)
	if ck.in.Meter != nil {
		overlap = ck.in.Meter.Overlap()
	}
	if ck.in.GCWorkers <= 1 {
		if overlap != 0 {
			ck.report(Violation{Pass: "workers",
				Msg: fmt.Sprintf("serial collector carries %d overlap cycles", overlap)})
		}
		if st.ParallelQuanta != 0 || st.WorkSteals != 0 {
			ck.report(Violation{Pass: "workers",
				Msg: fmt.Sprintf("serial collector counted %d quanta / %d steals", st.ParallelQuanta, st.WorkSteals)})
		}
		return
	}
	if st.WorkSteals > st.ParallelQuanta {
		ck.report(Violation{Pass: "workers",
			Msg: fmt.Sprintf("WorkSteals %d exceeds ParallelQuanta %d", st.WorkSteals, st.ParallelQuanta)})
	}
	if overlap != 0 && st.ParallelQuanta == 0 && st.NumGC > 0 {
		ck.report(Violation{Pass: "workers",
			Msg: fmt.Sprintf("%d overlap cycles with no parallel quanta distributed", overlap)})
	}
}
