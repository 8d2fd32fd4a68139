package fuzz

import (
	"fmt"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// interp executes a program against one collector instance. Its
// semantics consult only collector-independent state — root nil-ness
// and object kind/arity/mask, never address values — so the same
// program makes the same client-visible decisions under every
// configuration in the matrix.
type interp struct {
	col   core.Collector
	stack *rt.Stack // the current thread's stack
	meter *costmodel.Meter
	fi    *rt.FrameInfo

	depth    int   // current thread's simulated frames (>= 1: the base frame stays)
	handlers []int // mirror of the current thread's handler chain: owning frame depth

	// threads is the collector's thread set. states holds each suspended
	// thread's interpreter state by id (the current thread's entry is
	// stale while it runs); curID names the running thread.
	threads *rt.ThreadSet
	states  []threadState
	curID   int

	checksum uint64
}

// threadState is the interpreter state of one suspended thread: its
// simulated call depth and its handler-chain mirror. The stack itself
// lives in the rt.Thread.
type threadState struct {
	depth    int
	handlers []int
}

// newInterp prepares one run over col's thread set: it registers the
// uniform all-pointer fuzz frame and pushes the base frame on thread 0.
func newInterp(col core.Collector, table *rt.TraceTable, meter *costmodel.Meter) *interp {
	slots := make([]rt.SlotTrace, NumRoots+1)
	slots[0] = rt.NP()
	for i := 1; i <= NumRoots; i++ {
		slots[i] = rt.PTR()
	}
	fi := table.Register("fuzz", slots, nil)
	threads := col.Threads()
	in := &interp{col: col, stack: threads.Thread(0).Stack(), meter: meter, fi: fi,
		threads: threads, states: []threadState{{depth: 1}}, checksum: fnvOffset}
	in.stack.Call(fi)
	in.depth = 1
	return in
}

// switchTo suspends the current thread's interpreter state and resumes
// thread id's. The caller has checked the target is live and different.
func (in *interp) switchTo(id int) {
	in.states[in.curID] = threadState{depth: in.depth, handlers: in.handlers}
	t := in.threads.SetCurrent(id)
	in.curID = id
	in.stack = t.Stack()
	in.depth = in.states[id].depth
	in.handlers = in.states[id].handlers
}

// fold mixes a value into the running client checksum (FNV-1a over
// 64-bit lanes).
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func (in *interp) fold(v uint64) {
	in.checksum = (in.checksum ^ v) * fnvPrime
}

// rootAddr reads root slot s of the current frame as a pointer.
func (in *interp) rootAddr(s int) mem.Addr { return mem.Addr(in.stack.Slot(s)) }

// decodeRoot decodes the object in root slot s, or ok=false when nil.
func (in *interp) decodeRoot(s int) (obj.Object, bool) {
	a := in.rootAddr(s)
	if a.IsNil() {
		return obj.Object{}, false
	}
	return obj.Decode(in.col.Heap(), a), true
}

// pickPtrField returns a pointer field index of o at-or-after start
// (wrapping), or ok=false when o has none.
func pickPtrField(o obj.Object, start uint64) (uint64, bool) {
	if o.Len == 0 {
		return 0, false
	}
	switch o.Kind {
	case obj.PtrArray:
		return start % o.Len, true
	case obj.Record:
		for k := uint64(0); k < o.Len; k++ {
			i := (start + k) % o.Len
			if o.Mask>>i&1 == 1 {
				return i, true
			}
		}
	}
	return 0, false
}

// pickRawField returns a non-pointer field index of o at-or-after start
// (wrapping), or ok=false when o has none.
func pickRawField(o obj.Object, start uint64) (uint64, bool) {
	if o.Len == 0 {
		return 0, false
	}
	switch o.Kind {
	case obj.RawArray:
		return start % o.Len, true
	case obj.Record:
		for k := uint64(0); k < o.Len; k++ {
			i := (start + k) % o.Len
			if o.Mask>>i&1 == 0 {
				return i, true
			}
		}
	}
	return 0, false
}

// run executes every op in order.
func (in *interp) run(p *Program) {
	for _, op := range p.Ops {
		in.step(op)
	}
}

// step executes one op. Every path is total.
func (in *interp) step(op Op) {
	switch op.Kind {
	case OpAllocRecord:
		in.allocRecord(op)
	case OpAllocPtrArray:
		in.allocPtrArray(op)
	case OpAllocRawArray:
		in.allocRawArray(op)
	case OpStorePtr:
		o, ok := in.decodeRoot(root(op.A))
		if !ok {
			return
		}
		i, ok := pickPtrField(o, uint64(op.B))
		if !ok {
			return
		}
		in.col.StoreField(o.Addr, i, in.stack.Slot(root(op.C)), true)
	case OpStoreInt:
		o, ok := in.decodeRoot(root(op.A))
		if !ok {
			return
		}
		i, ok := pickRawField(o, uint64(op.B))
		if !ok {
			return
		}
		in.col.StoreField(o.Addr, i, mix64(op.V), false)
	case OpLoadPtr:
		o, ok := in.decodeRoot(root(op.A))
		if !ok {
			return
		}
		i, ok := pickPtrField(o, uint64(op.B))
		if !ok {
			return
		}
		v := in.col.LoadField(o.Addr, i)
		in.stack.SetSlot(root(op.C), v)
		if mem.Addr(v).IsNil() {
			in.fold(1)
		} else {
			in.fold(2)
		}
	case OpLoadInt:
		o, ok := in.decodeRoot(root(op.A))
		if !ok {
			return
		}
		i, ok := pickRawField(o, uint64(op.B))
		if !ok {
			return
		}
		in.fold(in.col.LoadField(o.Addr, i))
	case OpDrop:
		in.stack.SetSlot(root(op.A), uint64(mem.Nil))
	case OpDup:
		in.stack.SetSlot(root(op.B), in.stack.Slot(root(op.A)))
	case OpCollect:
		in.col.Collect(op.V&1 == 1)
	case OpCall:
		if in.depth >= MaxCallDepth {
			return
		}
		var vals [NumRoots]uint64
		for i := 0; i < NumRoots; i++ {
			vals[i] = in.stack.Slot(i + 1)
		}
		in.stack.Call(in.fi)
		in.depth++
		for i, v := range vals {
			in.stack.SetSlot(i+1, v)
		}
	case OpReturn:
		if in.depth <= 1 {
			return
		}
		// Handlers owned by the returning frame end with it.
		for len(in.handlers) > 0 && in.handlers[len(in.handlers)-1] == in.depth-1 {
			in.stack.PopHandler()
			in.handlers = in.handlers[:len(in.handlers)-1]
		}
		// Pass root A back through the (untraced) return register; no
		// allocation intervenes, so the pointer cannot go stale.
		in.stack.SetReg(0, in.stack.Slot(root(op.A)))
		in.stack.Return()
		in.depth--
		in.stack.SetSlot(root(op.B), in.stack.Reg(0))
		in.stack.SetReg(0, 0)
	case OpPushHandler:
		in.stack.PushHandler()
		in.handlers = append(in.handlers, in.depth-1)
	case OpRaise:
		if len(in.handlers) == 0 {
			return
		}
		hf := in.handlers[len(in.handlers)-1]
		in.handlers = in.handlers[:len(in.handlers)-1]
		in.stack.Raise()
		in.depth = hf + 1
	case OpSetAux:
		a := in.rootAddr(root(op.A))
		if a.IsNil() {
			return
		}
		in.meter.Charge(costmodel.Client, costmodel.MutatorStore)
		obj.SetAux(in.col.Heap(), a, uint8(op.V))
	case OpGetAux:
		a := in.rootAddr(root(op.A))
		if a.IsNil() {
			return
		}
		in.meter.Charge(costmodel.Client, costmodel.MutatorLoad)
		in.fold(uint64(obj.Aux(in.col.Heap(), a)))
	case OpWalk:
		in.walk(op)
	case OpWork:
		in.meter.ChargeN(costmodel.Client, costmodel.ClientWork, op.V%997)
	case OpSpawn:
		if in.threads.Len() >= MaxThreads {
			return
		}
		// Read the spawner's roots before creating the thread; no
		// allocation intervenes before they are written into the new base
		// frame, so the pointers cannot go stale.
		var vals [NumRoots]uint64
		for i := 0; i < NumRoots; i++ {
			vals[i] = in.stack.Slot(i + 1)
		}
		t := in.threads.Spawn()
		st := t.Stack()
		st.Call(in.fi)
		for i, v := range vals {
			st.SetSlot(i+1, v)
		}
		in.states = append(in.states, threadState{depth: 1})
		in.fold(0x5a00 | uint64(t.ID()))
	case OpSwitch:
		id := int(op.A) % in.threads.Len()
		t := in.threads.Thread(id)
		if t.Dead() || id == in.curID {
			return
		}
		in.switchTo(id)
		in.fold(0x5c00 | uint64(id))
	case OpJoin:
		id := int(op.A) % in.threads.Len()
		if id == 0 || id == in.curID || in.threads.Thread(id).Dead() {
			return
		}
		in.threads.Join(id)
		in.fold(0x5d00 | uint64(id))
	}
}

// allocRecord allocates a record and initializes every field: pointer
// fields from the roots, raw fields from values derived from V.
func (in *interp) allocRecord(op Op) {
	length := op.recordLen()
	// Only mask bits under the arity matter; masking keeps the
	// fingerprint's mask fold identical across ops that differ only in
	// dead bits.
	var mask uint64
	if length > 0 {
		mask = mix64(op.V) & (1<<length - 1)
	}
	a := in.col.Alloc(obj.Record, length, op.site(), mask)
	// Roots may have moved during the allocation; re-read them now.
	for i := uint64(0); i < length; i++ {
		if mask>>i&1 == 1 {
			src := root(uint16(mix64(op.V+i) & 0xffff))
			in.col.InitField(a, i, in.stack.Slot(src))
		} else {
			in.col.InitField(a, i, mix64(op.V^(i+1)))
		}
	}
	in.stack.SetSlot(root(op.A), uint64(a))
}

// allocPtrArray allocates an all-pointer array, wiring a few elements
// to the roots.
func (in *interp) allocPtrArray(op Op) {
	length := op.arrayLen()
	a := in.col.Alloc(obj.PtrArray, length, op.site(), 0)
	step := 1 + mix64(op.V)%7
	for i := uint64(0); i < length; i += step {
		src := root(uint16(mix64(op.V+i) & 0xffff))
		in.col.InitField(a, i, in.stack.Slot(src))
	}
	in.stack.SetSlot(root(op.A), uint64(a))
}

// allocRawArray allocates an untraced array with derived contents.
func (in *interp) allocRawArray(op Op) {
	length := op.arrayLen()
	a := in.col.Alloc(obj.RawArray, length, op.site(), 0)
	for i := uint64(0); i < length; i++ {
		in.col.InitField(a, i, mix64(op.V^i))
	}
	in.stack.SetSlot(root(op.A), uint64(a))
}

// walk follows first-pointer-field links from root A, folding each
// visited object's shape into the checksum. Field loads cannot
// allocate, so the cursor may live in a Go local.
func (in *interp) walk(op Op) {
	a := in.rootAddr(root(op.A))
	steps := uint64(0)
	for !a.IsNil() && steps < MaxWalkSteps {
		o := obj.Decode(in.col.Heap(), a)
		in.fold(uint64(o.Kind)<<32 | o.Len)
		steps++
		i, ok := pickPtrField(o, uint64(op.B))
		if !ok {
			break
		}
		a = mem.Addr(in.col.LoadField(o.Addr, i))
	}
	in.fold(steps)
}

// ---- Client-visible heap fingerprint ----------------------------------------

// rootStacks lists the stacks whose slots are client-visible roots:
// every live thread's stack in thread-id order (a joined thread's stack
// stops being a root source, so its private garbage is legitimately
// dead).
func rootStacks(ts *rt.ThreadSet) []*rt.Stack {
	var out []*rt.Stack
	for _, t := range ts.Threads() {
		if !t.Dead() {
			out = append(out, t.Stack())
		}
	}
	return out
}

// fingerprint hashes the client-visible heap: a BFS over the object
// graph from every root slot of every frame of every given stack,
// visiting objects in first-discovery order and naming them by
// canonical id. The hash covers graph shape (which canonical object
// each pointer field names), object kind/arity/site/mask, aux bytes,
// and raw field values — and deliberately excludes addresses, space
// ids, and the collector-owned age byte, which legitimately differ
// across configurations.
func fingerprint(col core.Collector, stacks []*rt.Stack) uint64 {
	type queued struct{ a mem.Addr }
	h := col.Heap()
	ids := make(map[mem.Addr]uint64)
	var queue []queued
	hash := uint64(fnvOffset)
	fold := func(v uint64) { hash = (hash ^ v) * fnvPrime }
	visit := func(a mem.Addr) uint64 {
		if a.IsNil() {
			return 0 // canonical nil
		}
		if id, ok := ids[a]; ok {
			return id
		}
		id := uint64(len(ids) + 1)
		ids[a] = id
		queue = append(queue, queued{a})
		return id
	}

	// Roots in (stack, frame, slot) order. Every fuzz frame has the same
	// layout: slot 0 is the return key, slots 1..NumRoots are pointers.
	for _, stack := range stacks {
		for f := 0; f < stack.FrameCount(); f++ {
			base := stack.FrameBase(f)
			for s := 1; s <= NumRoots; s++ {
				fold(visit(mem.Addr(stack.RawSlot(base + s))))
			}
		}
	}

	for len(queue) > 0 {
		a := queue[0].a
		queue = queue[1:]
		o := obj.Decode(h, a)
		fold(uint64(o.Kind))
		fold(o.Len)
		fold(uint64(o.Site))
		fold(o.Mask)
		fold(uint64(obj.Aux(h, a)))
		for i := uint64(0); i < o.Len; i++ {
			v := obj.Field(h, a, i)
			if o.IsPtrField(i) {
				fold(visit(mem.Addr(v)))
			} else {
				fold(v)
			}
		}
	}
	fold(uint64(len(ids)))
	return hash
}

// FormatFailureDetail is a tiny helper shared by oracle messages.
func fmtHash(h uint64) string { return fmt.Sprintf("%016x", h) }
