package rt

import (
	"math"
	"math/rand"
	"testing"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
)

func newTestEnv() (*TraceTable, *costmodel.Meter, *Stack) {
	tt := NewTraceTable()
	m := costmodel.NewMeter()
	return tt, m, NewStack(tt, m)
}

func simpleFrame(tt *TraceTable, name string, size int) *FrameInfo {
	slots := make([]SlotTrace, size)
	return tt.Register(name, slots, nil)
}

func TestTraceTableRegisterLookup(t *testing.T) {
	tt := NewTraceTable()
	a := tt.Register("f", []SlotTrace{NP(), PTR(), NP()}, nil)
	b := tt.Register("g", []SlotTrace{NP(), SAVE(3)}, nil)
	if a.Key == b.Key {
		t.Fatal("duplicate keys")
	}
	if tt.Lookup(a.Key) != a || tt.Lookup(b.Key) != b {
		t.Fatal("lookup mismatch")
	}
	if tt.Lookup(0) != nil {
		t.Fatal("sentinel lookup not nil")
	}
	if tt.Len() != 2 {
		t.Fatalf("Len = %d", tt.Len())
	}
	if a.Slots[0].Kind != TraceNonPointer {
		t.Error("slot 0 trace not forced to non-pointer")
	}
}

func TestTraceKindStrings(t *testing.T) {
	want := map[TraceKind]string{
		TraceNonPointer: "NON-POINTER",
		TracePointer:    "POINTER",
		TraceCalleeSave: "CALLEE-SAVE",
		TraceCompute:    "COMPUTE",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
}

func TestCallReturnBasics(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 4)
	g := simpleFrame(tt, "g", 3)

	s.Call(f)
	if s.Depth() != 1 || s.CurrentKey() != f.Key {
		t.Fatalf("after call f: depth=%d key=%d", s.Depth(), s.CurrentKey())
	}
	if s.StoredRetKey(0) != 0 {
		t.Fatal("initial frame should store sentinel ret key")
	}
	s.Call(g)
	if s.Depth() != 2 || s.CurrentKey() != g.Key {
		t.Fatal("after call g")
	}
	if s.StoredRetKey(1) != f.Key {
		t.Fatal("g's frame should store f's key")
	}
	s.Return()
	if s.Depth() != 1 || s.CurrentKey() != f.Key {
		t.Fatal("after return from g")
	}
	s.Return()
	if s.Depth() != 0 || s.CurrentKey() != 0 {
		t.Fatal("after return from f")
	}
}

func TestSlotAccess(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 4)
	g := simpleFrame(tt, "g", 2)
	s.Call(f)
	s.SetSlot(1, 111)
	s.SetSlot(3, 333)
	s.Call(g)
	s.SetSlot(1, 999)
	if s.Slot(1) != 999 {
		t.Fatal("inner slot wrong")
	}
	s.Return()
	if s.Slot(1) != 111 || s.Slot(3) != 333 {
		t.Fatal("outer slots disturbed")
	}
}

func TestSlotsZeroedOnPush(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 3)
	s.Call(f)
	s.SetSlot(1, 42)
	s.SetSlot(2, 43)
	s.Return()
	s.Call(f)
	if s.Slot(1) != 0 || s.Slot(2) != 0 {
		t.Fatal("reused frame slots not zeroed")
	}
}

func TestSlotBoundsPanic(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 2)
	s.Call(f)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slot access did not panic")
		}
	}()
	s.Slot(2)
}

func TestSetSlotZeroPanics(t *testing.T) {
	tt, _, s := newTestEnv()
	s.Call(simpleFrame(tt, "f", 2))
	defer func() {
		if recover() == nil {
			t.Fatal("write to return-key slot did not panic")
		}
	}()
	s.SetSlot(0, 1)
}

func TestRegisters(t *testing.T) {
	_, _, s := newTestEnv()
	s.SetReg(5, 77)
	if s.Reg(5) != 77 || s.Reg(4) != 0 {
		t.Fatal("register file broken")
	}
}

func TestHandlersAndRaise(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 3)
	g := simpleFrame(tt, "g", 3)
	s.Call(f)
	s.SetSlot(1, 10)
	s.PushHandler()
	for i := 0; i < 5; i++ {
		s.Call(g)
	}
	if s.Depth() != 6 {
		t.Fatal("setup depth")
	}
	s.Raise()
	if s.Depth() != 1 || s.CurrentKey() != f.Key {
		t.Fatalf("after raise: depth=%d", s.Depth())
	}
	if s.Slot(1) != 10 {
		t.Fatal("handler frame slots lost")
	}
	if s.HandlerDepth() != 0 {
		t.Fatal("handler not consumed")
	}
	if s.RaiseMark() != 1 {
		t.Fatalf("raise mark = %d", s.RaiseMark())
	}
}

func TestRaiseToCurrentFrame(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 2)
	s.Call(f)
	s.PushHandler()
	s.Raise()
	if s.Depth() != 1 || s.CurrentKey() != f.Key {
		t.Fatal("raise-to-self broke the stack")
	}
}

func TestPopHandler(t *testing.T) {
	tt, _, s := newTestEnv()
	s.Call(simpleFrame(tt, "f", 2))
	s.PushHandler()
	s.PushHandler()
	s.PopHandler()
	if s.HandlerDepth() != 1 {
		t.Fatal("pop handler count")
	}
}

func TestMarkerFiresOnReturn(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 3)
	for i := 0; i < 4; i++ {
		s.Call(f)
	}
	if !s.PlaceMarker(2) {
		t.Fatal("PlaceMarker failed")
	}
	if s.PlaceMarker(2) {
		t.Fatal("double marker placement should be a no-op")
	}
	if s.MarkerCount() != 1 {
		t.Fatal("marker count")
	}
	// StoredRetKey sees through the stub.
	if s.StoredRetKey(2) != f.Key {
		t.Fatal("StoredRetKey does not see through stub")
	}
	s.Return() // frame 3
	if s.MarkerCount() != 1 {
		t.Fatal("marker fired early")
	}
	s.Return() // frame 2: fires the marker
	if s.MarkerCount() != 0 {
		t.Fatal("marker did not fire")
	}
	if s.CurrentKey() != f.Key || s.Depth() != 2 {
		t.Fatal("stub return did not restore control correctly")
	}
}

// TestStubReturnsCountedPerStack: a return through a marker stub counts
// on the stack it fires on, a spawned thread's included, and on no other.
func TestStubReturnsCountedPerStack(t *testing.T) {
	tt, m, s := newTestEnv()
	f := simpleFrame(tt, "f", 3)
	st := NewThreadSet(s, m).Spawn().Stack()
	for i := 0; i < 3; i++ {
		st.Call(f)
	}
	if !st.PlaceMarker(1) {
		t.Fatal("PlaceMarker failed")
	}
	st.Return() // frame 2
	if st.StubReturns() != 0 {
		t.Fatal("plain return counted as a stub return")
	}
	st.Return() // frame 1: through the stub
	st.Return()
	if st.StubReturns() != 1 || s.StubReturns() != 0 {
		t.Fatalf("stub returns: spawned stack %d, primary %d; want 1, 0", st.StubReturns(), s.StubReturns())
	}
}

func TestReuseBoundaryShallowestSurvivingMarker(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 2)
	for i := 0; i < 10; i++ {
		s.Call(f)
	}
	s.PlaceMarker(2)
	s.PlaceMarker(5)
	s.PlaceMarker(8)
	if b := s.ReuseBoundary(); b != 8 {
		t.Fatalf("boundary = %d, want 8", b)
	}
	// Pop frames 9 and 8: marker at 8 fires.
	s.Return()
	s.Return()
	if b := s.ReuseBoundary(); b != 5 {
		t.Fatalf("boundary after firing = %d, want 5", b)
	}
}

func TestReuseBoundaryRaiseInvalidatesMarkers(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 2)
	s.Call(f)
	s.PushHandler() // handler at frame 0
	for i := 0; i < 9; i++ {
		s.Call(f)
	}
	s.PlaceMarker(4)
	s.PlaceMarker(7)
	s.ResetEpoch()
	// Raise jumps past both markers without firing their stubs.
	s.Raise()
	if s.Depth() != 1 {
		t.Fatal("raise depth")
	}
	// Regrow the stack past the old marker positions.
	for i := 0; i < 9; i++ {
		s.Call(f)
	}
	if b := s.ReuseBoundary(); b != -1 {
		t.Fatalf("boundary = %d, want -1 (markers jumped past)", b)
	}
	if s.MarkerCount() != 0 {
		t.Fatal("stale marker entries not pruned")
	}
}

func TestReuseBoundaryRaiseBelowMarkerKeepsDeeperMarker(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 2)
	for i := 0; i < 3; i++ {
		s.Call(f)
	}
	s.PushHandler() // handler at frame 2
	for i := 0; i < 7; i++ {
		s.Call(f)
	}
	s.PlaceMarker(1)
	s.PlaceMarker(6)
	s.ResetEpoch()
	s.Raise() // unwinds to frame 2: marker at 6 jumped past, marker at 1 safe
	if b := s.ReuseBoundary(); b != 1 {
		t.Fatalf("boundary = %d, want 1", b)
	}
}

func TestResetEpochClearsRaiseMark(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 2)
	s.Call(f)
	s.PushHandler()
	s.Call(f)
	s.Raise()
	if s.RaiseMark() == math.MaxInt {
		t.Fatal("raise mark not recorded")
	}
	s.ResetEpoch()
	if s.RaiseMark() != math.MaxInt {
		t.Fatal("epoch reset did not clear raise mark")
	}
}

func TestFrameStats(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 2)
	for i := 0; i < 5; i++ {
		s.Call(f)
	}
	s.Return()
	s.Return()
	s.Call(f)
	if s.MaxDepth() != 5 {
		t.Fatalf("MaxDepth = %d", s.MaxDepth())
	}
	if s.FramePushes() != 6 {
		t.Fatalf("FramePushes = %d", s.FramePushes())
	}
}

func TestMeterChargedByMutatorOps(t *testing.T) {
	tt, m, s := newTestEnv()
	f := simpleFrame(tt, "f", 2)
	before := m.Get(costmodel.Client)
	s.Call(f)
	s.SetSlot(1, 1)
	_ = s.Slot(1)
	s.Return()
	if m.Get(costmodel.Client) == before {
		t.Fatal("mutator ops charged nothing")
	}
	if m.GC() != 0 {
		t.Fatal("mutator ops charged GC time")
	}
}

func TestSSB(t *testing.T) {
	m := costmodel.NewMeter()
	b := NewSSB(m)
	a1 := mem.MakeAddr(1, 10)
	b.Record(a1)
	b.Record(a1) // duplicates kept
	b.Record(mem.MakeAddr(1, 20))
	if b.Len() != 3 || b.TotalRecorded() != 3 {
		t.Fatalf("len=%d total=%d", b.Len(), b.TotalRecorded())
	}
	if b.Entries()[0] != a1 || b.Entries()[1] != a1 {
		t.Fatal("duplicate entries not preserved")
	}
	b.Drain()
	if b.Len() != 0 || b.TotalRecorded() != 3 {
		t.Fatal("drain semantics wrong")
	}
	if m.Get(costmodel.Client) != 3*costmodel.WriteBarrier {
		t.Fatal("barrier cost not charged")
	}
}

func TestCardTable(t *testing.T) {
	m := costmodel.NewMeter()
	c := NewCardTable(m, 7) // 128-word cards
	if c.CardWords() != 128 {
		t.Fatalf("CardWords = %d", c.CardWords())
	}
	base := mem.MakeAddr(1, 1000)
	for i := uint64(0); i < 100; i++ {
		c.Record(base.Add(i % 10)) // hammer one card
	}
	if c.DirtyCards() != 1 {
		t.Fatalf("DirtyCards = %d, want 1 (dedup)", c.DirtyCards())
	}
	if c.TotalRecorded() != 100 {
		t.Fatal("total recorded")
	}
	c.Record(base.Add(500))
	if c.DirtyCards() != 2 {
		t.Fatal("second card not dirtied")
	}
	if len(c.Cards()) != 2 {
		t.Fatal("Cards() length")
	}
	c.Drain()
	if c.DirtyCards() != 0 {
		t.Fatal("drain did not clear cards")
	}
}

// TestCardTableCardsSorted dirties many cards in scattered order and
// requires Cards() to come back ascending: the collector scans cards in
// this order, so map iteration order here would make copy order and cost
// accounting vary run to run.
func TestCardTableCardsSorted(t *testing.T) {
	c := NewCardTable(costmodel.NewMeter(), 4) // 16-word cards
	for _, off := range []uint64{9000, 16, 4096, 0, 100000, 512, 48, 7777} {
		c.Record(mem.MakeAddr(1, off))
	}
	ids := c.Cards()
	if len(ids) != c.DirtyCards() {
		t.Fatalf("Cards() returned %d ids for %d dirty cards", len(ids), c.DirtyCards())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("Cards() not sorted ascending: %v", ids)
		}
	}
}

// TestStackInvariantsRandomWalk drives a long random sequence of calls,
// returns, handler pushes and raises, checking structural invariants at
// every step.
func TestStackInvariantsRandomWalk(t *testing.T) {
	tt, _, s := newTestEnv()
	var infos []*FrameInfo
	for i := 0; i < 8; i++ {
		infos = append(infos, simpleFrame(tt, "f", 2+i%5))
	}
	rng := rand.New(rand.NewSource(12345))

	for step := 0; step < 50000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || s.Depth() == 0: // call
			s.Call(infos[rng.Intn(len(infos))])
		case op < 8: // return (first discard handlers owned by the top frame)
			for handlerOnTop(s) {
				s.PopHandler()
			}
			if s.Depth() > 0 {
				s.Return()
			}
		case op == 8:
			s.PushHandler()

		default:
			if s.HandlerDepth() > 0 {
				s.Raise()

			}
		}
		// Invariants: frame chain keys decode consistently.
		if s.Depth() > 0 {
			fi := tt.Lookup(s.CurrentKey())
			if fi == nil {
				t.Fatal("current key unregistered")
			}
			base := s.FrameBase(s.Depth() - 1)
			if base+fi.Size != stackSP(s) {
				t.Fatalf("step %d: sp mismatch: base=%d size=%d sp=%d",
					step, base, fi.Size, stackSP(s))
			}
			for i := 1; i < s.Depth(); i++ {
				if s.StoredRetKey(i) != s.FrameKey(i-1) {
					t.Fatalf("step %d: frame %d ret key chain broken", step, i)
				}
			}
			if s.StoredRetKey(0) != 0 {
				t.Fatal("initial frame sentinel lost")
			}
		}
	}
}

func handlerOnTop(s *Stack) bool {
	return s.HandlerDepth() > 0 && s.Depth() > 0 &&
		s.handlers[len(s.handlers)-1] == s.Depth()-1
}

func stackSP(s *Stack) int { return s.sp }

func TestCollectorViewAccessors(t *testing.T) {
	tt, _, s := newTestEnv()
	f := simpleFrame(tt, "f", 3)
	if s.Table() != tt {
		t.Fatal("Table accessor wrong")
	}
	s.Call(f)
	s.Call(f)
	if s.FrameCount() != 2 {
		t.Fatalf("FrameCount = %d", s.FrameCount())
	}
	if s.FrameSerial(0) != 0 || s.FrameSerial(1) != 1 {
		t.Fatal("frame serials wrong")
	}
	if s.SP() != 6 {
		t.Fatalf("SP = %d", s.SP())
	}
	s.SetRawSlot(4, 99)
	if s.RawSlot(4) != 99 {
		t.Fatal("raw slot round trip failed")
	}
	if s.Slot(1) != 99 { // slot 1 of the top frame == absolute slot 4
		t.Fatal("raw slot does not alias frame slot")
	}
}

func TestTraceConstructors(t *testing.T) {
	if tr := COMPSLOT(3); tr.Kind != TraceCompute || tr.Arg != 3 || tr.ArgIsReg {
		t.Fatalf("COMPSLOT = %+v", tr)
	}
	if tr := COMPREG(5); tr.Kind != TraceCompute || tr.Arg != 5 || !tr.ArgIsReg {
		t.Fatalf("COMPREG = %+v", tr)
	}
	if tr := SAVE(7); tr.Kind != TraceCalleeSave || tr.Arg != 7 {
		t.Fatalf("SAVE = %+v", tr)
	}
}

func TestRuntimePanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	tt, _, s := newTestEnv()
	fi := simpleFrame(tt, "f", 2)
	assertPanics("Return on empty", func() { s.Return() })
	assertPanics("PushHandler on empty", func() { s.PushHandler() })
	assertPanics("PopHandler with none", func() {
		s.Call(fi)
		s.PopHandler()
	})
	tt2, _, s2 := newTestEnv()
	_ = tt2
	assertPanics("Raise with no handler", func() {
		s2.Raise()
	})
	tt3, _, s3 := newTestEnv()
	assertPanics("slot access on empty stack", func() {
		_ = s3.Slot(1)
	})
	_ = tt3
	assertPanics("register empty frame size", func() {
		tt.Register("bad", nil, nil)
	})
	assertPanics("register wrong reg count", func() {
		tt.Register("bad", make([]SlotTrace, 2), make([]SlotTrace, 3))
	})
	assertPanics("lookup unregistered", func() {
		tt.Lookup(RetKey(4000))
	})
}

func TestCardBounds(t *testing.T) {
	c := NewCardTable(costmodel.NewMeter(), 7)
	start, n := c.CardBounds(3)
	if start != mem.Addr(3<<7) || n != 128 {
		t.Fatalf("CardBounds = %v, %d", start, n)
	}
}
