package core

import (
	"fmt"
	"math/bits"

	"tilgc/internal/costmodel"
	"tilgc/internal/rt"
)

// MarkerPolicy selects how stack markers are placed (§7.1 notes "the
// placement policy of stack markers presented above is just one of
// several possible choices ... a more dynamic policy of marker placement
// may achieve better performance with fewer markers").
type MarkerPolicy uint8

const (
	// MarkerFixed places a marker on every n-th frame plus the top frame
	// — the paper's policy (n = 25 in its experiments).
	MarkerFixed MarkerPolicy = iota
	// MarkerExponential places markers at exponentially growing distances
	// from the top of the stack (1, 2, 4, 8, ... frames down): O(log
	// depth) markers, with the guarantee that after popping k frames a
	// surviving marker lies within k frames of the new top, so rescans
	// stay proportional to the actual churn.
	MarkerExponential
)

// StackScanner performs the paper's two-pass stack-root scan (§2.3) and,
// when markerN > 0, the generational stack collection of §5: after every
// scan it installs stack markers, and on the next scan it reuses the
// cached decode results for every frame strictly below the shallowest
// surviving marker.
//
// Pass 1 walks the stack newest→oldest, recovering each frame's layout
// from the return key stored in the frame above it (the trace-table
// lookup). Pass 2 walks oldest→newest maintaining the pointer status of
// the register set, resolving CALLEE-SAVE slots from that status and
// COMPUTE slots from runtime type values, and emitting root locations.
// Pass 2 reads each layout in the form TraceTable.Register compiled it
// to (rt.ScanLayout), as the paper's collector reads trace tables its
// compiler built (§4); nothing interprets trace kinds at scan time.
type StackScanner struct {
	stack *rt.Stack
	meter *costmodel.Meter
	stats *GCStats

	// markerN is the paper's n: a marker is placed on every n-th frame
	// (plus the top frame). Zero disables generational stack collection.
	markerN int
	policy  MarkerPolicy
	// revisitOnMinor makes minor scans re-trace cached root locations
	// instead of skipping reused frames outright. Required when survivors
	// are not promoted immediately (the aging configuration): cached
	// frames may hold pointers into the still-collected aging space. This
	// is the paper's weaker-but-still-profitable mode: "it is still
	// advantageous to have amortized the cost of decoding the stack
	// frames by storing the decoded results".
	revisitOnMinor bool

	// tally, when non-nil (W ≥ 2), brackets each frame's scan — decode,
	// root visits, and any evacuations they trigger — as one parallel
	// work quantum. The scan still executes in the canonical serial
	// order; only the cycle accounting is sharded. The frame is the
	// natural unit: the register-status chain each frame inherits is
	// exactly the per-frame entry state a parallel collector caches at
	// stacklet boundaries (the markers of §5), so frames scan
	// independently once that state is known.
	tally *costmodel.WorkerTally

	cache []frameCache
	// roots holds every cached frame's root slot indices back to back,
	// frame i's in roots[cache[i].lo:cache[i].hi]; truncating the cache
	// truncates it at the last kept frame's hi.
	roots       []int
	keyBuf      []rt.RetKey // pass-1 scratch, pooled across scans
	lastPushCnt uint64      // stack.FramePushes() at the previous scan
}

// frameCache holds the decoded results for one frame: the discovered root
// slot locations and the register pointer-status after the frame's
// register traces were applied — "the register state and root list" the
// paper stores.
type frameCache struct {
	serial    uint64
	base      int
	lo, hi    int // the frame's absolute root slot indices, in StackScanner.roots
	key       rt.RetKey
	regStatus uint32
}

// NewStackScanner creates a scanner over stack. markerN = 0 disables
// stack markers (the baseline configuration).
func NewStackScanner(stack *rt.Stack, meter *costmodel.Meter, stats *GCStats, markerN int) *StackScanner {
	return &StackScanner{stack: stack, meter: meter, stats: stats, markerN: markerN}
}

// SetTally attaches the parallel-worker tally (nil for the serial
// collector). With a tally, every meter charge the scan issues lands
// inside a quantum, so the roots phase reconciles as a parallel phase.
func (sc *StackScanner) SetTally(t *costmodel.WorkerTally) { sc.tally = t }

// NoteCollection records the Table 2 depth and new-frame statistics for
// one collection event. Collectors call it exactly once per collection,
// even when a minor collection escalates to a major one (which scans the
// stack a second time).
func (sc *StackScanner) NoteCollection() {
	depth := sc.stack.FrameCount()
	sc.stats.DepthSum += uint64(depth)
	if uint64(depth) > sc.stats.MaxDepthAtGC {
		sc.stats.MaxDepthAtGC = uint64(depth)
	}
	newFrames := 0
	for i := depth - 1; i >= 0; i-- {
		if sc.stack.FrameSerial(i) < sc.lastPushCnt {
			break
		}
		newFrames++
	}
	sc.stats.NewFrames += uint64(newFrames)
	sc.lastPushCnt = sc.stack.FramePushes()
}

// Scan discovers the root set and calls visit for every root location.
//
// For a minor collection under immediate promotion, frames below the
// reuse boundary cannot reference the nursery (their pointers were
// forwarded to the old generation at the previous collection and the
// frames have not been touched since), so they are skipped outright. For
// a major collection their cached root locations are re-visited without
// re-decoding the frames.
func (sc *StackScanner) Scan(minor bool, visit func(RootLoc)) {
	depth := sc.stack.FrameCount()

	// Determine the reusable prefix [0, reuse).
	reuse := 0
	if sc.markerN > 0 {
		sc.tally.BeginQuantum()
		sc.meter.Charge(costmodel.GCStack, costmodel.WatermarkCheck)
		sc.tally.EndQuantum()
		b := sc.stack.ReuseBoundary()
		reuse = b // frames 0..b-1 are unchanged
		if reuse < 0 {
			reuse = 0
		}
		if reuse > len(sc.cache) {
			// Cache is shorter than the boundary (should not happen: the
			// boundary only covers frames scanned before). Be safe.
			reuse = len(sc.cache)
		}
		if reuse > depth {
			reuse = depth
		}
		sc.validateCache(reuse)
	}

	var regStatus uint32
	if reuse > 0 {
		regStatus = sc.cache[reuse-1].regStatus
		sc.stats.FramesReused += uint64(reuse)
		if minor && !sc.revisitOnMinor {
			// Immediate promotion: reused frames contribute no nursery
			// roots at a minor collection.
			sc.tally.BeginQuantum()
			sc.meter.ChargeN(costmodel.GCStack, costmodel.FrameReuse, uint64(reuse))
			sc.tally.EndQuantum()
		} else {
			// Major collection: re-trace the cached root locations, one
			// quantum per reused frame.
			for i := 0; i < reuse; i++ {
				sc.tally.BeginQuantum()
				sc.meter.Charge(costmodel.GCStack, costmodel.FrameReuse)
				for _, idx := range sc.roots[sc.cache[i].lo:sc.cache[i].hi] {
					sc.meter.Charge(costmodel.GCStack, costmodel.CachedRoot)
					visit(RootLoc{Index: idx})
				}
				sc.tally.EndQuantum()
			}
		}
	}

	// Pass 1: decode layouts for frames [reuse, depth) newest→oldest by
	// following the return-key chain from the current execution point.
	// The key buffer is pooled: at steady state this allocates nothing.
	if cap(sc.keyBuf) < depth {
		sc.keyBuf = make([]rt.RetKey, depth)
	}
	keys := sc.keyBuf[:depth]
	if depth > 0 {
		keys[depth-1] = sc.stack.CurrentKey()
		for i := depth - 1; i > reuse; i-- {
			keys[i-1] = sc.stack.StoredRetKey(i)
		}
	}

	// Pass 2: oldest→newest over the non-reused suffix, one quantum per
	// decoded frame (the decode, its root visits, and the evacuations
	// those visits trigger all belong to the frame's worker).
	sc.truncateCache(reuse)
	for i := reuse; i < depth; i++ {
		sc.tally.BeginQuantum()
		regStatus = sc.decodeFrame(i, keys[i], regStatus, visit)
		sc.tally.EndQuantum()
	}

	// Registers of the current execution point are always roots when the
	// trace information says so.
	if depth > 0 {
		sc.tally.BeginQuantum()
		sc.scanTopRegs(regStatus, visit)
		sc.tally.EndQuantum()
	}

	// Place markers for the next collection.
	if sc.markerN > 0 {
		switch sc.policy {
		case MarkerFixed:
			// Every markerN-th frame plus the top frame (maximizing
			// reuse for stacks that stay deep).
			for i := sc.markerN - 1; i < depth; i += sc.markerN {
				sc.placeMarker(i)
			}
			if depth > 0 {
				sc.placeMarker(depth - 1)
			}
		case MarkerExponential:
			// Only above the reuse boundary: frames below it still carry
			// the valid markers that established the boundary.
			for d := 1; depth-d >= reuse; d *= 2 {
				sc.placeMarker(depth - d)
			}
			if depth > 0 && reuse == 0 {
				sc.placeMarker(0)
			}
		}
		sc.stack.ResetEpoch()
	}
}

// SetMarkerPolicy selects the marker placement policy (default
// MarkerFixed, the paper's).
func (sc *StackScanner) SetMarkerPolicy(p MarkerPolicy) { sc.policy = p }

// SetRevisitOnMinor switches minor scans from frame skipping to
// cached-root revisiting (required without immediate promotion).
func (sc *StackScanner) SetRevisitOnMinor(v bool) { sc.revisitOnMinor = v }

func (sc *StackScanner) placeMarker(i int) {
	if sc.stack.PlaceMarker(i) {
		sc.tally.BeginQuantum()
		sc.meter.Charge(costmodel.GCStack, costmodel.MarkerPlace)
		sc.tally.EndQuantum()
		sc.stats.MarkersPlaced++
	}
}

// validateCache asserts that the reusable cache prefix still describes the
// live frames; a mismatch means the marker bookkeeping is unsound.
func (sc *StackScanner) validateCache(reuse int) {
	for i := 0; i < reuse; i++ {
		c := sc.cache[i]
		if c.serial != sc.stack.FrameSerial(i) || c.base != sc.stack.FrameBase(i) ||
			c.key != sc.stack.FrameKey(i) {
			panic(fmt.Sprintf("core: stale frame cache at index %d", i))
		}
	}
}

// decodeFrame fully decodes frame i (layout key) in pass-2 order, emits
// its roots, records its cache entry, and returns the register status
// after applying the frame's register traces. It reads only the layout's
// compiled scan form: every slot is charged a SlotTrace, but only the
// slots that can hold a pointer are visited, each resolved just before
// its visit so a COMPUTE trace sees what earlier visits wrote.
func (sc *StackScanner) decodeFrame(i int, key rt.RetKey, regStatus uint32, visit func(RootLoc)) uint32 {
	sc.meter.Charge(costmodel.GCStack, costmodel.FrameDecode)
	sc.stats.FramesDecoded++
	fi := sc.stack.Table().Lookup(key)
	if fi == nil {
		panic(fmt.Sprintf("core: frame %d has no layout (key %d)", i, key))
	}
	sc.meter.ChargeN(costmodel.GCStack, costmodel.SlotTrace, uint64(fi.Size-1))
	lay := fi.Scan()
	base := sc.stack.FrameBase(i)
	isTop := i == sc.stack.FrameCount()-1

	lo := len(sc.roots)
	status := regStatus | rt.AlwaysPointer
	for k := range lay.Slots {
		ref := &lay.Slots[k]
		if sc.isPointer(ref, status, base, isTop) {
			idx := base + int(ref.Index)
			sc.roots = append(sc.roots, idx)
			sc.meter.Charge(costmodel.GCStack, costmodel.RootProcess)
			visit(RootLoc{Index: idx})
		}
	}

	newStatus := regStatus&lay.KeepRegs | lay.PtrRegs
	for k := range lay.CompRegs {
		ref := &lay.CompRegs[k]
		if sc.isPointer(ref, status, base, isTop) {
			newStatus |= 1 << ref.Index
		}
	}

	sc.cache = append(sc.cache, frameCache{
		serial:    sc.stack.FrameSerial(i),
		base:      base,
		key:       key,
		lo:        lo,
		hi:        len(sc.roots),
		regStatus: newStatus,
	})
	return newStatus
}

// scanTopRegs visits the live registers of the current execution point:
// the top frame's register traces applied once more to regStatus, the
// status after the whole stack. Registers are resolved and visited in
// ascending order, so a COMPUTE register reads its type after the visits
// of the registers below it.
func (sc *StackScanner) scanTopRegs(regStatus uint32, visit func(RootLoc)) {
	sc.meter.ChargeN(costmodel.GCStack, costmodel.SlotTrace, rt.NumRegs)
	lay := sc.stack.Table().Lookup(sc.stack.CurrentKey()).Scan()
	base := sc.stack.FrameBase(sc.stack.FrameCount() - 1)
	live := regStatus&lay.KeepRegs | lay.PtrRegs
	comp := lay.CompRegs
	for {
		r := rt.NumRegs
		if live != 0 {
			r = bits.TrailingZeros32(live)
		}
		if len(comp) > 0 && int(comp[0].Index) < r {
			ref := &comp[0]
			comp = comp[1:]
			if !sc.isPointer(ref, 0, base, true) {
				continue
			}
			r = int(ref.Index)
		} else if r == rt.NumRegs {
			return
		} else {
			live &^= 1 << r
		}
		sc.meter.Charge(costmodel.GCStack, costmodel.RootProcess)
		visit(RootLoc{IsReg: true, Index: r})
	}
}

// isPointer resolves one compiled slot or register of the frame at base:
// a COMPUTE trace from its runtime type, any other from status (the
// inherited register status with rt.AlwaysPointer set).
func (sc *StackScanner) isPointer(ref *rt.ScanRef, status uint32, base int, isTop bool) bool {
	if !ref.Compute {
		return status&ref.Mask != 0
	}
	sc.meter.Charge(costmodel.GCStack, costmodel.ComputeTrace)
	return sc.typeValue(ref, base, isTop) == rt.TypePointer
}

// typeValue loads the runtime type a COMPUTE trace points at: a slot of
// the same frame, or a register (valid only for the top frame, whose
// register contents are live).
func (sc *StackScanner) typeValue(tr *rt.ScanRef, base int, isTop bool) uint64 {
	if tr.ArgIsReg {
		if !isTop {
			panic("core: COMPUTE-from-register trace in a suspended frame")
		}
		return sc.stack.Reg(int(tr.Arg))
	}
	return sc.stack.RawSlot(base + int(tr.Arg))
}

// truncateCache keeps the first n cached frames and their roots.
func (sc *StackScanner) truncateCache(n int) {
	sc.cache = sc.cache[:n]
	if n == 0 {
		sc.roots = sc.roots[:0]
	} else {
		sc.roots = sc.roots[:sc.cache[n-1].hi]
	}
}
