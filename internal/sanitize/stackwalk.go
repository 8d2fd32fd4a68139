package sanitize

import (
	"tilgc/internal/rt"
)

// stackRoots independently re-derives the stack root set: a two-pass walk
// over the live frames resolving POINTER, CALLEE-SAVE, and COMPUTE traces
// against the trace table, exactly as the collector's scanner does (§2.3)
// — but from the stack's frame bookkeeping rather than the stored
// return-key chain, and without touching the scanner's cache or charging
// costs. The fromspace pass treats the returned values as the ground-truth
// roots; the markers pass separately checks that the stored return-key
// chain agrees with the bookkeeping, so a corrupted chain surfaces there
// instead of cascading into bogus reachability reports here. The roots
// are appended to dst.
func stackRoots(dst []uint64, st *rt.Stack) []uint64 {
	depth := st.FrameCount()
	if depth == 0 {
		return dst
	}
	table := st.Table()
	roots := dst
	var regStatus uint32
	for i := 0; i < depth; i++ {
		fi := table.Lookup(st.FrameKey(i))
		if fi == nil {
			// No layout for this frame (markers pass reports the broken
			// chain); without a layout neither its slots nor the register
			// status downstream can be derived soundly — stop here.
			return roots
		}
		base := st.FrameBase(i)
		isTop := i == depth-1
		for j := 1; j < fi.Size; j++ {
			if resolveTrace(st, fi.Slots[j], base, regStatus, isTop) {
				roots = append(roots, st.RawSlot(base+j))
			}
		}
		var newStatus uint32
		for r := 0; r < rt.NumRegs; r++ {
			live := false
			switch fi.Regs[r].Kind {
			case rt.TraceCalleeSave:
				live = regStatus>>r&1 == 1
			default:
				live = resolveTrace(st, fi.Regs[r], base, regStatus, isTop)
			}
			if live {
				newStatus |= 1 << r
			}
		}
		regStatus = newStatus
	}
	// The top frame's register contents are live; its trace info decided
	// which registers hold pointers (now encoded in regStatus).
	for r := 0; r < rt.NumRegs; r++ {
		if regStatus>>r&1 == 1 {
			roots = append(roots, st.Reg(r))
		}
	}
	return roots
}

// resolveTrace decides pointer-ness of one slot or register trace.
func resolveTrace(st *rt.Stack, tr rt.SlotTrace, base int, regStatus uint32, isTop bool) bool {
	switch tr.Kind {
	case rt.TracePointer:
		return true
	case rt.TraceNonPointer:
		return false
	case rt.TraceCalleeSave:
		return regStatus>>tr.Arg&1 == 1
	case rt.TraceCompute:
		if tr.ArgIsReg {
			if !isTop {
				// Register contents of suspended frames are not live; the
				// scanner panics on this layout, so just stay conservative.
				return false
			}
			return st.Reg(int(tr.Arg)) == rt.TypePointer
		}
		return st.RawSlot(base+int(tr.Arg)) == rt.TypePointer
	}
	return false
}
