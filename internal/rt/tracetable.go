// Package rt simulates the TIL runtime structures the collectors operate
// on: the mutator stack of activation records described by trace tables,
// the general-purpose register file with callee-save discipline, the
// exception-handler chain, the sequential store buffer write barrier, and
// the stack-marker table used by generational stack collection.
//
// Fidelity notes (how this mirrors the paper's §2.3):
//
//   - A frame's slot 0 holds the return "address" — a key describing the
//     *caller's* frame layout, exactly as a real return address indexes the
//     trace table for the frame it returns into. The currently-executing
//     function's key describes the top frame.
//   - Slots and registers carry one of four traces: POINTER, NON-POINTER,
//     CALLEE-SAVE (value saved from a caller's register, pointer-ness
//     inherited), or COMPUTE (pointer-ness resolved at scan time from a
//     runtime type value living in another slot or register).
//   - Because of callee-save traces, frames cannot be decoded in isolation;
//     the collector's scan is two-pass (see internal/core/stackscan.go).
package rt

import "fmt"

// RetKey is a simulated return address: a key into the trace table that
// identifies a frame layout. Key 0 is the sentinel for "no caller" (the
// initial frame); StubKey marks a frame whose return goes through the
// generational-stack-collection stub.
type RetKey uint32

// StubKey is the distinguished return key installed by stack markers.
const StubKey RetKey = 0xFFFFFFFF

// NumRegs is the number of simulated general-purpose registers visible to
// the collector. The Alpha has 32; the TIL register allocator exposes a
// subset as roots. Sixteen keeps per-frame register traces realistic
// without inflating table sizes.
const NumRegs = 16

// TraceKind classifies how the collector should treat a slot or register.
type TraceKind uint8

const (
	// TraceNonPointer marks an untraced value (unboxed int, float, ...).
	TraceNonPointer TraceKind = iota
	// TracePointer marks a statically-known pointer.
	TracePointer
	// TraceCalleeSave marks a slot holding the saved value of a caller's
	// register (Arg = register number), or a register preserved unchanged
	// from the caller. Pointer-ness is inherited from the caller's state.
	TraceCalleeSave
	// TraceCompute marks a value whose pointer-ness the compiler could not
	// determine statically; it is computed at scan time from a runtime
	// type residing in slot Arg (ArgIsReg=false) or register Arg
	// (ArgIsReg=true) of the same frame.
	TraceCompute
)

// String returns the trace-kind name as it appears in the paper's Figure 1.
func (k TraceKind) String() string {
	switch k {
	case TraceNonPointer:
		return "NON-POINTER"
	case TracePointer:
		return "POINTER"
	case TraceCalleeSave:
		return "CALLEE-SAVE"
	case TraceCompute:
		return "COMPUTE"
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// SlotTrace describes one stack slot or register in a trace-table entry.
type SlotTrace struct {
	Kind     TraceKind
	Arg      uint8 // register number (CalleeSave) or slot/register index (Compute)
	ArgIsReg bool  // for Compute: whether Arg names a register rather than a slot
}

// Convenience constructors for building frame layouts.

// NP is a non-pointer slot trace.
func NP() SlotTrace { return SlotTrace{Kind: TraceNonPointer} }

// PTR is a statically-known pointer slot trace.
func PTR() SlotTrace { return SlotTrace{Kind: TracePointer} }

// SAVE marks a slot/register as holding caller register reg's value.
func SAVE(reg uint8) SlotTrace { return SlotTrace{Kind: TraceCalleeSave, Arg: reg} }

// COMPSLOT marks a slot whose pointer-ness comes from the runtime type in
// slot idx of the same frame.
func COMPSLOT(idx uint8) SlotTrace { return SlotTrace{Kind: TraceCompute, Arg: idx} }

// COMPREG marks a slot whose pointer-ness comes from the runtime type in
// register reg.
func COMPREG(reg uint8) SlotTrace { return SlotTrace{Kind: TraceCompute, Arg: reg, ArgIsReg: true} }

// TypePointer and TypeNonPointer are the runtime "type" values consulted
// when resolving COMPUTE traces, standing in for TIL's runtime type
// representations passed to polymorphic code.
const (
	TypeNonPointer uint64 = 0
	TypePointer    uint64 = 1
)

// FrameInfo is one trace-table entry: the layout of a frame, keyed by
// return address. Slot 0 is always the stored return key and is never
// traced directly.
//
// An entry is read-only once Register has returned it: Register copies
// its inputs and compiles the scan form (ScanLayout) from them, so a
// later write to Slots or Regs would desynchronize the two.
type FrameInfo struct {
	Key   RetKey
	Name  string      // function name, for diagnostics and profiles
	Size  int         // total slots, including slot 0
	Slots []SlotTrace // len == Size; Slots[0] is ignored
	Regs  []SlotTrace // len == NumRegs; register state at call points

	scan ScanLayout
}

// AlwaysPointer is a status bit no register occupies. The collector
// tests a ScanRef's Mask against its register status with this bit set,
// so a POINTER trace (Mask == AlwaysPointer) always matches.
const AlwaysPointer uint32 = 1 << 31

// ScanLayout is a frame layout compiled for the collector's stack scan,
// the way the paper's compiler emits trace tables per return address
// (§4) rather than leaving their interpretation to scan time. The
// register half of a decode becomes two masks and a short list:
//
//	status' = status&KeepRegs | PtrRegs | {r in CompRegs resolved to a pointer}
//
// and the slot half a walk over the slots that can hold a pointer.
// NON-POINTER traces compile to nothing. A ScanLayout is read-only.
type ScanLayout struct {
	PtrRegs  uint32    // registers traced POINTER
	KeepRegs uint32    // registers traced CALLEE-SAVE: status inherited
	CompRegs []ScanRef // registers traced COMPUTE, ascending
	Slots    []ScanRef // slots traced other than NON-POINTER, ascending
}

// ScanRef is one slot or register of a ScanLayout. A COMPUTE trace has
// Compute set and names its runtime-type source in Arg/ArgIsReg; any
// other trace is a pointer exactly when Mask meets the register status
// with AlwaysPointer set: Mask is AlwaysPointer for POINTER and 1<<reg
// for CALLEE-SAVE(reg) (zero for a register the file does not have).
type ScanRef struct {
	Index    int32 // slot index, or register number in CompRegs
	Mask     uint32
	Compute  bool
	Arg      uint8
	ArgIsReg bool
}

// Scan returns the entry's compiled scan form.
func (fi *FrameInfo) Scan() *ScanLayout { return &fi.scan }

// compileScan builds the scan form of a layout whose slot 0 is already
// NON-POINTER.
func compileScan(slots, regs []SlotTrace) ScanLayout {
	var l ScanLayout
	for r, tr := range regs {
		switch tr.Kind {
		case TracePointer:
			l.PtrRegs |= 1 << r
		case TraceCalleeSave:
			l.KeepRegs |= 1 << r
		case TraceCompute:
			l.CompRegs = append(l.CompRegs, scanRef(r, tr))
		}
	}
	for j, tr := range slots {
		if tr.Kind != TraceNonPointer {
			l.Slots = append(l.Slots, scanRef(j, tr))
		}
	}
	return l
}

func scanRef(i int, tr SlotTrace) ScanRef {
	ref := ScanRef{Index: int32(i)}
	switch tr.Kind {
	case TracePointer:
		ref.Mask = AlwaysPointer
	case TraceCalleeSave:
		if tr.Arg < NumRegs {
			ref.Mask = 1 << tr.Arg
		}
	case TraceCompute:
		ref.Compute, ref.Arg, ref.ArgIsReg = true, tr.Arg, tr.ArgIsReg
	}
	return ref
}

// TraceTable is the registry of frame layouts, indexed by return key.
// Keys are dense and assigned at registration, mirroring the compile-time
// construction of the table.
type TraceTable struct {
	infos []*FrameInfo // index = key; entry 0 is nil (sentinel)
}

// NewTraceTable creates an empty trace table.
func NewTraceTable() *TraceTable {
	return &TraceTable{infos: make([]*FrameInfo, 1, 64)}
}

// Register adds a frame layout and returns its entry. The slot-0 trace is
// forced to non-pointer (it holds the return key). A nil regs slice means
// "all registers dead at call points" (all non-pointer). The entry's
// scan form is compiled here, once per layout.
func (t *TraceTable) Register(name string, slots []SlotTrace, regs []SlotTrace) *FrameInfo {
	if len(slots) == 0 {
		panic("rt: frame must have at least the return-key slot")
	}
	if regs == nil {
		regs = make([]SlotTrace, NumRegs)
	}
	if len(regs) != NumRegs {
		panic(fmt.Sprintf("rt: frame %q has %d register traces, want %d", name, len(regs), NumRegs))
	}
	slots = append([]SlotTrace(nil), slots...)
	slots[0] = NP()
	fi := &FrameInfo{
		Key:   RetKey(len(t.infos)),
		Name:  name,
		Size:  len(slots),
		Slots: slots,
		Regs:  append([]SlotTrace(nil), regs...),
	}
	fi.scan = compileScan(fi.Slots, fi.Regs)
	if fi.Key >= StubKey {
		panic("rt: trace table full")
	}
	t.infos = append(t.infos, fi)
	return fi
}

// Lookup returns the frame layout for a return key, or nil for the
// initial-frame sentinel.
func (t *TraceTable) Lookup(k RetKey) *FrameInfo {
	if k == 0 {
		return nil
	}
	if int(k) >= len(t.infos) {
		panic(fmt.Sprintf("rt: lookup of unregistered key %d", k))
	}
	return t.infos[k]
}

// Len returns the number of registered entries.
func (t *TraceTable) Len() int { return len(t.infos) - 1 }
