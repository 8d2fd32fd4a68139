package rt

import (
	"fmt"
	"math"

	"tilgc/internal/costmodel"
)

// Marker records one stack marker: a frame whose stored return key has been
// replaced by StubKey so that its return is observed by the runtime.
type Marker struct {
	Base    int    // slot index of the marked frame's slot 0
	Index   int    // frame index (0 = initial frame) at placement time
	OrigKey RetKey // the displaced return key
}

// Stack is the simulated mutator stack: a flat slot array holding
// activation records, plus the register file, exception-handler chain, and
// the stack-marker bookkeeping of §5.
type Stack struct {
	table *TraceTable
	meter *costmodel.Meter

	slots   []uint64
	sp      int // next free slot
	frames  []frameRec
	curKey  RetKey     // key of the currently-executing function (top frame layout)
	curInfo *FrameInfo // cached layout for curKey (hot path of slot checks)

	regs [NumRegs]uint64

	handlers []int // frame indices owning active exception handlers

	// Stack-marker state (generational stack collection).
	markers   map[int]Marker // keyed by frame base
	raiseMark int            // M: min frame count reached by raises since last GC

	// Statistics for Table 2.
	maxDepth    int
	framePushes uint64

	stubReturns uint64 // returns through marker stubs: the trace's rt.stub_returns
}

type frameRec struct {
	base   int
	key    RetKey
	serial uint64 // push counter value when this frame was pushed
}

// NewStack creates an empty stack. The meter is charged for all
// mutator-side operations.
func NewStack(table *TraceTable, meter *costmodel.Meter) *Stack {
	return &Stack{
		table:     table,
		meter:     meter,
		slots:     make([]uint64, 0, 1024),
		markers:   make(map[int]Marker),
		raiseMark: math.MaxInt,
	}
}

// Depth returns the current number of frames.
func (s *Stack) Depth() int { return len(s.frames) }

// MaxDepth returns the deepest frame count observed.
func (s *Stack) MaxDepth() int { return s.maxDepth }

// FramePushes returns the total number of frames ever pushed.
func (s *Stack) FramePushes() uint64 { return s.framePushes }

// StubReturns returns the number of returns through marker stubs.
func (s *Stack) StubReturns() uint64 { return s.stubReturns }

// CurrentKey returns the key of the currently-executing function's layout.
func (s *Stack) CurrentKey() RetKey { return s.curKey }

// Table returns the trace table frames are described by.
func (s *Stack) Table() *TraceTable { return s.table }

// Call pushes an activation record for fi. Slot 0 receives the caller's
// key (the simulated return address); remaining slots are zeroed, standing
// in for the prologue's slot initialization.
func (s *Stack) Call(fi *FrameInfo) {
	base := s.sp
	need := base + fi.Size
	for cap(s.slots) < need {
		s.slots = append(s.slots[:cap(s.slots)], 0)
	}
	s.slots = s.slots[:need]
	s.slots[base] = uint64(s.curKey)
	for i := base + 1; i < need; i++ {
		s.slots[i] = 0
	}
	s.sp = need
	s.frames = append(s.frames, frameRec{base: base, key: fi.Key, serial: s.framePushes})
	s.curKey = fi.Key
	s.curInfo = fi
	s.framePushes++
	if len(s.frames) > s.maxDepth {
		s.maxDepth = len(s.frames)
	}
	s.meter.Charge(costmodel.Client, costmodel.CallFrame)
}

// Return pops the top activation record. If the frame was marked, control
// passes through the stub: the original return key is restored from the
// marker table, the marker is retired, and the extra stub cost is charged.
func (s *Stack) Return() {
	if len(s.frames) == 0 {
		panic("rt: Return with empty stack")
	}
	f := s.frames[len(s.frames)-1]
	raw := RetKey(s.slots[f.base])
	if raw == StubKey {
		m, ok := s.markers[f.base]
		if !ok {
			panic("rt: stub return with no marker entry")
		}
		delete(s.markers, f.base)
		raw = m.OrigKey
		s.meter.Charge(costmodel.Client, costmodel.StubReturn)
		s.stubReturns++
	} else {
		s.meter.Charge(costmodel.Client, costmodel.ReturnFrame)
	}
	s.sp = f.base
	s.slots = s.slots[:s.sp]
	s.frames = s.frames[:len(s.frames)-1]
	s.curKey = raw
	s.curInfo = s.table.Lookup(raw)
	// Dangling handlers in the popped frame are the workload's bug; the
	// handler chain is validated on PushHandler/Raise instead of here to
	// keep Return on the fast path.
}

// PushHandler installs an exception handler owned by the current frame.
func (s *Stack) PushHandler() {
	if len(s.frames) == 0 {
		panic("rt: PushHandler with empty stack")
	}
	s.handlers = append(s.handlers, len(s.frames)-1)
	s.meter.Charge(costmodel.Client, costmodel.MutatorStore)
}

// PopHandler removes the most recent handler (normal, non-raising exit of
// its scope).
func (s *Stack) PopHandler() {
	if len(s.handlers) == 0 {
		panic("rt: PopHandler with no handler")
	}
	s.handlers = s.handlers[:len(s.handlers)-1]
	s.meter.Charge(costmodel.Client, costmodel.MutatorLoad)
}

// Raise unwinds to the most recent handler, popping every frame above the
// handler's frame *without* executing returns — marked frames in between
// are jumped past, which is exactly why the watermark M exists (§5). The
// handler is consumed.
func (s *Stack) Raise() {
	if len(s.handlers) == 0 {
		panic("rt: Raise with no handler")
	}
	hf := s.handlers[len(s.handlers)-1]
	s.handlers = s.handlers[:len(s.handlers)-1]
	keep := hf + 1
	if keep > len(s.frames) {
		panic("rt: handler frame above stack top")
	}
	s.frames = s.frames[:keep]
	top := s.frames[keep-1]
	fi := s.table.Lookup(top.key)
	s.sp = top.base + fi.Size
	s.slots = s.slots[:s.sp]
	s.curKey = top.key
	s.curInfo = fi
	if keep < s.raiseMark {
		s.raiseMark = keep
	}
	s.meter.Charge(costmodel.Client, costmodel.RaiseHandler)
}

// HandlerDepth returns the number of active handlers.
func (s *Stack) HandlerDepth() int { return len(s.handlers) }

// Slot returns slot i of the top frame.
func (s *Stack) Slot(i int) uint64 {
	f := s.topFrame()
	s.checkSlot(f, i)
	s.meter.Charge(costmodel.Client, costmodel.MutatorLoad)
	return s.slots[f.base+i]
}

// SetSlot writes slot i of the top frame. Slot 0 (the return key) is not
// writable by the mutator.
func (s *Stack) SetSlot(i int, v uint64) {
	f := s.topFrame()
	s.checkSlot(f, i)
	if i == 0 {
		panic("rt: mutator write to return-key slot")
	}
	s.meter.Charge(costmodel.Client, costmodel.MutatorStore)
	s.slots[f.base+i] = v
}

// Reg returns register r.
func (s *Stack) Reg(r int) uint64 {
	return s.regs[r]
}

// SetReg writes register r.
func (s *Stack) SetReg(r int, v uint64) {
	s.regs[r] = v
}

func (s *Stack) topFrame() frameRec {
	if len(s.frames) == 0 {
		panic("rt: slot access with empty stack")
	}
	return s.frames[len(s.frames)-1]
}

func (s *Stack) checkSlot(f frameRec, i int) {
	fi := s.curInfo
	if i < 0 || i >= fi.Size {
		panic(fmt.Sprintf("rt: slot %d out of range for frame %q (size %d)", i, fi.Name, fi.Size))
	}
}

// ---- Collector-side access ------------------------------------------------
//
// The methods below are used by the collectors in internal/core. They give
// raw access to frames, slots and marker bookkeeping; all cost charging for
// their use is done by the collector, which knows whether work is a decode
// or a cached reuse.

// FrameCount returns the number of frames (collector view).
func (s *Stack) FrameCount() int { return len(s.frames) }

// FrameBase returns the base slot index of frame i (0 = initial frame).
func (s *Stack) FrameBase(i int) int { return s.frames[i].base }

// FrameKey returns the layout key of frame i.
func (s *Stack) FrameKey(i int) RetKey { return s.frames[i].key }

// FrameSerial returns the push-counter value recorded when frame i was
// pushed; collectors use it to count frames that are new since the
// previous collection (Table 2's "New Frames in Stack").
func (s *Stack) FrameSerial(i int) uint64 { return s.frames[i].serial }

// SP returns the current stack-pointer (next free slot index).
func (s *Stack) SP() int { return s.sp }

// RawSlot reads absolute stack slot idx without mutator cost.
func (s *Stack) RawSlot(idx int) uint64 { return s.slots[idx] }

// SetRawSlot writes absolute stack slot idx without mutator cost. The
// collector uses this to forward root pointers after copying.
func (s *Stack) SetRawSlot(idx int, v uint64) { s.slots[idx] = v }

// StoredRetKey returns the return key stored in frame i's slot 0, seeing
// through an installed marker stub.
func (s *Stack) StoredRetKey(i int) RetKey {
	raw := RetKey(s.slots[s.frames[i].base])
	if raw == StubKey {
		return s.markers[s.frames[i].base].OrigKey
	}
	return raw
}

// PlaceMarker installs a stack marker on frame i: the stored return key is
// replaced by StubKey and remembered. Placing a marker on an
// already-marked frame is a no-op.
func (s *Stack) PlaceMarker(i int) bool {
	f := s.frames[i]
	if RetKey(s.slots[f.base]) == StubKey {
		return false
	}
	s.markers[f.base] = Marker{Base: f.base, Index: i, OrigKey: RetKey(s.slots[f.base])}
	s.slots[f.base] = uint64(StubKey)
	return true
}

// ReuseBoundary computes and returns the index B of the shallowest
// surviving marker not jumped past by a raise. Frames 0..B-1 are
// guaranteed unchanged since the markers were placed: popping any of them
// would have fired the marker at B first. Frame B itself may have been
// mutated while briefly on top of the stack (slot writes do not fire
// markers), so collectors reuse cached scan results only for frames
// strictly below B. It also
// prunes marker-table entries invalidated by raises (entries for frames
// that were popped without firing their stub). Returns -1 when nothing can
// be reused. ResetEpoch must be called after the collection to start the
// next observation window.
func (s *Stack) ReuseBoundary() int {
	best := -1
	for base, m := range s.markers {
		if m.Index >= s.raiseMark || m.Index >= len(s.frames) ||
			s.frames[m.Index].base != m.Base || RetKey(s.slots[m.Base]) != StubKey {
			// Jumped past by a raise (or otherwise gone): the stub slot no
			// longer exists. Drop the stale entry.
			delete(s.markers, base)
			continue
		}
		if m.Index > best {
			best = m.Index
		}
	}
	return best
}

// ResetEpoch starts a new marker observation window (called by the
// collector at the end of each stack scan).
func (s *Stack) ResetEpoch() {
	s.raiseMark = math.MaxInt
}

// MarkerCount returns the number of live marker-table entries.
func (s *Stack) MarkerCount() int { return len(s.markers) }

// MarkerAt returns the marker entry for the given frame base, if any.
func (s *Stack) MarkerAt(base int) (Marker, bool) {
	m, ok := s.markers[base]
	return m, ok
}

// RaiseMark returns the watermark M (min frame count reached by raises in
// the current epoch), or math.MaxInt if no raise occurred.
func (s *Stack) RaiseMark() int { return s.raiseMark }
