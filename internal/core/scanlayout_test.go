package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/rt"
)

// interpScanner is the stack scan as an interpreter of frame layouts:
// every decode sends each slot trace and all NumRegs register traces
// through a switch and charges SlotTrace one slot at a time. It is the
// reference the compiled-layout StackScanner must match exactly, kept
// here so the trace kinds no workload registers (CALLEE-SAVE, COMPUTE)
// stay covered. Marker placement is the fixed policy only.
type interpScanner struct {
	stack          *rt.Stack
	meter          *costmodel.Meter
	tally          *costmodel.WorkerTally
	markerN        int
	revisitOnMinor bool
	cache          []frameCache
	roots          []int
}

func (sc *interpScanner) Scan(minor bool, visit func(RootLoc)) {
	depth := sc.stack.FrameCount()
	reuse := 0
	if sc.markerN > 0 {
		sc.tally.BeginQuantum()
		sc.meter.Charge(costmodel.GCStack, costmodel.WatermarkCheck)
		sc.tally.EndQuantum()
		reuse = min(max(sc.stack.ReuseBoundary(), 0), len(sc.cache), depth)
	}
	var regStatus uint32
	if reuse > 0 {
		regStatus = sc.cache[reuse-1].regStatus
		if minor && !sc.revisitOnMinor {
			sc.tally.BeginQuantum()
			sc.meter.ChargeN(costmodel.GCStack, costmodel.FrameReuse, uint64(reuse))
			sc.tally.EndQuantum()
		} else {
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
	keys := make([]rt.RetKey, depth)
	if depth > 0 {
		keys[depth-1] = sc.stack.CurrentKey()
		for i := depth - 1; i > reuse; i-- {
			keys[i-1] = sc.stack.StoredRetKey(i)
		}
	}
	sc.cache = sc.cache[:reuse]
	sc.roots = sc.roots[:0]
	if reuse > 0 {
		sc.roots = sc.roots[:sc.cache[reuse-1].hi]
	}
	for i := reuse; i < depth; i++ {
		sc.tally.BeginQuantum()
		regStatus = sc.decodeFrame(i, keys[i], regStatus, visit)
		sc.tally.EndQuantum()
	}
	if depth > 0 {
		sc.tally.BeginQuantum()
		fi := sc.stack.Table().Lookup(sc.stack.CurrentKey())
		base := sc.stack.FrameBase(depth - 1)
		for r := 0; r < rt.NumRegs; r++ {
			sc.meter.Charge(costmodel.GCStack, costmodel.SlotTrace)
			if sc.regTrace(fi, r, base, regStatus, true) {
				sc.meter.Charge(costmodel.GCStack, costmodel.RootProcess)
				visit(RootLoc{IsReg: true, Index: r})
			}
		}
		sc.tally.EndQuantum()
	}
	if sc.markerN > 0 {
		for i := sc.markerN - 1; i < depth; i += sc.markerN {
			sc.placeMarker(i)
		}
		if depth > 0 {
			sc.placeMarker(depth - 1)
		}
		sc.stack.ResetEpoch()
	}
}

func (sc *interpScanner) placeMarker(i int) {
	if sc.stack.PlaceMarker(i) {
		sc.tally.BeginQuantum()
		sc.meter.Charge(costmodel.GCStack, costmodel.MarkerPlace)
		sc.tally.EndQuantum()
	}
}

func (sc *interpScanner) decodeFrame(i int, key rt.RetKey, regStatus uint32, visit func(RootLoc)) uint32 {
	sc.meter.Charge(costmodel.GCStack, costmodel.FrameDecode)
	fi := sc.stack.Table().Lookup(key)
	if fi == nil {
		panic(fmt.Sprintf("core: frame %d has no layout (key %d)", i, key))
	}
	base := sc.stack.FrameBase(i)
	isTop := i == sc.stack.FrameCount()-1
	lo := len(sc.roots)
	for j := 1; j < fi.Size; j++ {
		sc.meter.Charge(costmodel.GCStack, costmodel.SlotTrace)
		if sc.slotTrace(fi.Slots[j], base, regStatus, isTop) {
			sc.roots = append(sc.roots, base+j)
			sc.meter.Charge(costmodel.GCStack, costmodel.RootProcess)
			visit(RootLoc{Index: base + j})
		}
	}
	newStatus := regStatus
	for r := 0; r < rt.NumRegs; r++ {
		if sc.regTrace(fi, r, base, regStatus, isTop) {
			newStatus |= 1 << r
		} else {
			newStatus &^= 1 << r
		}
	}
	sc.cache = append(sc.cache, frameCache{
		serial: sc.stack.FrameSerial(i), base: base, key: key, lo: lo, hi: len(sc.roots), regStatus: newStatus,
	})
	return newStatus
}

func (sc *interpScanner) slotTrace(tr rt.SlotTrace, base int, regStatus uint32, isTop bool) bool {
	switch tr.Kind {
	case rt.TracePointer:
		return true
	case rt.TraceNonPointer:
		return false
	case rt.TraceCalleeSave:
		return regStatus>>tr.Arg&1 == 1
	case rt.TraceCompute:
		sc.meter.Charge(costmodel.GCStack, costmodel.ComputeTrace)
		return sc.typeValue(tr, base, isTop) == rt.TypePointer
	}
	panic("unknown slot trace")
}

func (sc *interpScanner) regTrace(fi *rt.FrameInfo, r, base int, regStatus uint32, isTop bool) bool {
	tr := fi.Regs[r]
	switch tr.Kind {
	case rt.TracePointer:
		return true
	case rt.TraceNonPointer:
		return false
	case rt.TraceCalleeSave:
		return regStatus>>r&1 == 1
	case rt.TraceCompute:
		sc.meter.Charge(costmodel.GCStack, costmodel.ComputeTrace)
		return sc.typeValue(tr, base, isTop) == rt.TypePointer
	}
	panic("unknown register trace")
}

func (sc *interpScanner) typeValue(tr rt.SlotTrace, base int, isTop bool) uint64 {
	if tr.ArgIsReg {
		if !isTop {
			panic("core: COMPUTE-from-register trace in a suspended frame")
		}
		return sc.stack.Reg(int(tr.Arg))
	}
	return sc.stack.RawSlot(base + int(tr.Arg))
}

// randTrace draws one slot or register trace of any kind. COMPUTE reads
// a slot of the same frame, or, in a layout only ever on top of the
// stack, a register. CALLEE-SAVE may name a register past the file.
func randTrace(rng *rand.Rand, size int, top bool) rt.SlotTrace {
	switch rng.Intn(5) {
	case 0:
		return rt.NP()
	case 1:
		return rt.PTR()
	case 2:
		reg := rng.Intn(rt.NumRegs)
		if rng.Intn(4) == 0 {
			reg = rt.NumRegs + rng.Intn(32)
		}
		return rt.SAVE(uint8(reg))
	case 3:
		if top {
			return rt.COMPREG(uint8(rng.Intn(rt.NumRegs)))
		}
	}
	return rt.COMPSLOT(uint8(rng.Intn(size)))
}

// randLayouts registers n layouts of 1–12 slots with random slot and
// register traces; top layouts may also use COMPUTE-from-register.
func randLayouts(rng *rand.Rand, table *rt.TraceTable, n int, top bool) []*rt.FrameInfo {
	out := make([]*rt.FrameInfo, n)
	for k := range out {
		size := 1 + rng.Intn(12)
		slots := make([]rt.SlotTrace, size)
		for j := range slots {
			slots[j] = randTrace(rng, size, top)
		}
		var regs []rt.SlotTrace
		if rng.Intn(4) > 0 {
			regs = make([]rt.SlotTrace, rt.NumRegs)
			for r := range regs {
				regs[r] = randTrace(rng, size, top)
			}
		}
		out[k] = table.Register(fmt.Sprintf("f%d", k), slots, regs)
	}
	return out
}

// randWord draws a slot or register value: mostly runtime types, so
// COMPUTE traces resolve both ways, otherwise a plausible pointer.
func randWord(rng *rand.Rand) uint64 {
	if rng.Intn(3) > 0 {
		return uint64(rng.Intn(2))
	}
	return uint64(mem.MakeAddr(1, uint64(rng.Intn(100)+1)))
}

// scanScenario builds a stack over layouts and drives it with a random
// mix of calls, returns, raises, slot and register writes, and scans,
// all drawn from seed. Each scan goes through scan; its visit rewrites
// every root (low bit flipped), as forwarding does, so a COMPUTE trace
// resolved after a visit reads the rewritten word. The returned log
// holds every visit, and after each scan the GCStack cycles, the
// worker cycles of a tally (when there is one) and each cached frame's
// register status.
func scanScenario(seed int64, table *rt.TraceTable, layouts, tops []*rt.FrameInfo, stack *rt.Stack,
	meter *costmodel.Meter, tally *costmodel.WorkerTally, scan func(bool, func(RootLoc)), cache func() []frameCache) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var log []uint64
	visit := func(l RootLoc) {
		if l.IsReg {
			log = append(log, 1<<32|uint64(l.Index))
			stack.SetReg(l.Index, stack.Reg(l.Index)^1)
			return
		}
		log = append(log, uint64(l.Index))
		stack.SetRawSlot(l.Index, stack.RawSlot(l.Index)^1)
	}
	onTop := false // the top frame has a top-only layout
	push := func(fi *rt.FrameInfo) {
		stack.Call(fi)
		for j := 1; j < fi.Size; j++ {
			stack.SetSlot(j, randWord(rng))
		}
	}
	call := func() {
		if onTop {
			stack.Return()
			onTop = false
		}
		push(layouts[rng.Intn(len(layouts))])
	}
	for r := 0; r < rt.NumRegs; r++ {
		stack.SetReg(r, randWord(rng))
	}
	for i := 0; i < 1+rng.Intn(20); i++ {
		call()
	}
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			call()
		case op < 5:
			if stack.Depth() > 1 {
				stack.Return()
				onTop = false
			}
		case op < 6:
			if stack.Depth() > 3 {
				call()
				stack.PushHandler()
				call()
				call()
				stack.Raise()
			}
		case op < 7:
			if fi := table.Lookup(stack.CurrentKey()); fi.Size > 1 {
				stack.SetSlot(1+rng.Intn(fi.Size-1), randWord(rng))
			}
			stack.SetReg(rng.Intn(rt.NumRegs), randWord(rng))
		default:
			if !onTop && rng.Intn(2) == 0 {
				push(tops[rng.Intn(len(tops))])
				onTop = true
			}
			scan(rng.Intn(2) == 0, visit)
			log = append(log, 1<<40|uint64(meter.Get(costmodel.GCStack)))
			if tally != nil {
				for _, w := range tally.ClosePhase() {
					log = append(log, 1<<41|uint64(w))
				}
			}
			for _, c := range cache() {
				log = append(log, 1<<42|uint64(c.regStatus))
			}
		}
	}
	return log
}

// TestQuickCompiledScanMatchesInterpreter: for random layouts using all
// four trace kinds in slots and registers, the compiled-layout scanner
// visits the same roots in the same order, caches the same register
// status per frame and charges the same GCStack cycles as the
// interpreter, with and without stack markers and with and without a
// W=2 tally. Run deeper with -quickchecks.
func TestQuickCompiledScanMatchesInterpreter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		table := rt.NewTraceTable()
		layouts := randLayouts(rng, table, 1+rng.Intn(5), false)
		tops := randLayouts(rng, table, 1+rng.Intn(3), true)
		revisit := rng.Intn(2) == 0
		for _, markerN := range []int{0, 1 + rng.Intn(5)} {
			for _, workers := range []int{1, 2} {
				run := func(compiled bool) []uint64 {
					meter := costmodel.NewMeter()
					stack := rt.NewStack(table, meter)
					var tally *costmodel.WorkerTally
					if workers > 1 {
						tally = costmodel.NewWorkerTally(meter, workers)
					}
					if compiled {
						var stats GCStats
						sc := NewStackScanner(stack, meter, &stats, markerN)
						sc.SetTally(tally)
						sc.SetRevisitOnMinor(revisit)
						return scanScenario(seed, table, layouts, tops, stack, meter, tally, sc.Scan,
							func() []frameCache { return sc.cache })
					}
					sc := &interpScanner{stack: stack, meter: meter, tally: tally, markerN: markerN, revisitOnMinor: revisit}
					return scanScenario(seed, table, layouts, tops, stack, meter, tally, sc.Scan,
						func() []frameCache { return sc.cache })
				}
				if got, want := run(true), run(false); !slices.Equal(got, want) {
					t.Logf("seed %d markerN %d W %d: compiled scan diverges from the interpreter", seed, markerN, workers)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestScanPanicsOnBadFrames: a frame whose return key has no layout, and
// a COMPUTE-from-register trace in a suspended frame, both panic at scan
// time.
func TestScanPanicsOnBadFrames(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(table *rt.TraceTable, stack *rt.Stack)
	}{
		{"nil layout", "has no layout", func(_ *rt.TraceTable, stack *rt.Stack) {
			stack.SetRawSlot(stack.FrameBase(2), 0)
		}},
		{"register COMPUTE below the top", "suspended frame", func(table *rt.TraceTable, stack *rt.Stack) {
			stack.Call(table.Register("poly", []rt.SlotTrace{rt.NP(), rt.COMPREG(2)}, nil))
			stack.Call(table.Lookup(1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			table := rt.NewTraceTable()
			meter := costmodel.NewMeter()
			stack := rt.NewStack(table, meter)
			fi := table.Register("f", []rt.SlotTrace{rt.NP(), rt.PTR()}, nil)
			for i := 0; i < 3; i++ {
				stack.Call(fi)
			}
			tc.corrupt(table, stack)
			var stats GCStats
			sc := NewStackScanner(stack, meter, &stats, 0)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("panic %v, want one mentioning %q", r, tc.want)
				}
			}()
			sc.Scan(false, func(RootLoc) {})
		})
	}
}
