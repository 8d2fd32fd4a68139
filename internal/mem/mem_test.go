package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrPacking(t *testing.T) {
	cases := []struct {
		space  SpaceID
		offset uint64
	}{
		{1, 1},
		{1, 0xdeadbeef},
		{7, MaxSpaceWords - 1},
		{255, 42},
	}
	for _, c := range cases {
		a := MakeAddr(c.space, c.offset)
		if a.Space() != c.space {
			t.Errorf("MakeAddr(%d,%d).Space() = %d", c.space, c.offset, a.Space())
		}
		if a.Offset() != c.offset {
			t.Errorf("MakeAddr(%d,%d).Offset() = %d", c.space, c.offset, a.Offset())
		}
	}
}

func TestAddrPackingProperty(t *testing.T) {
	f := func(space uint16, offset uint32) bool {
		s := SpaceID(space) + 1
		o := uint64(offset) + 1
		a := MakeAddr(s, o)
		return a.Space() == s && a.Offset() == o && !a.IsNil()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNil(t *testing.T) {
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false")
	}
	if Nil.String() != "nil" {
		t.Errorf("Nil.String() = %q", Nil.String())
	}
	if MakeAddr(1, 1).IsNil() {
		t.Error("MakeAddr(1,1).IsNil() = true")
	}
}

func TestAddrAdd(t *testing.T) {
	a := MakeAddr(3, 100)
	b := a.Add(17)
	if b.Space() != 3 || b.Offset() != 117 {
		t.Errorf("Add: got %v", b)
	}
}

func TestSpaceAlloc(t *testing.T) {
	s := NewHeap().AddSpace(10)
	if s.Capacity() != 10 {
		t.Fatalf("Capacity = %d", s.Capacity())
	}
	a, ok := s.Alloc(4)
	if !ok || a.Offset() != 1 {
		t.Fatalf("first alloc: %v %v", a, ok)
	}
	b, ok := s.Alloc(6)
	if !ok || b.Offset() != 5 {
		t.Fatalf("second alloc: %v %v", b, ok)
	}
	if s.Used() != 10 || s.Free() != 0 {
		t.Errorf("Used=%d Free=%d", s.Used(), s.Free())
	}
	if _, ok := s.Alloc(1); ok {
		t.Error("alloc in full space succeeded")
	}
}

func TestSpaceAllocZeroes(t *testing.T) {
	h := NewHeap()
	s := h.AddSpace(8)
	a, _ := s.Alloc(8)
	for i := uint64(0); i < 8; i++ {
		h.Store(a.Add(i), ^uint64(0))
	}
	s.Reset()
	b, ok := s.Alloc(8)
	if !ok || b != a {
		t.Fatalf("re-alloc after reset: %v %v", b, ok)
	}
	for i := uint64(0); i < 8; i++ {
		if h.Load(b.Add(i)) != 0 {
			t.Fatalf("word %d not zeroed after reuse", i)
		}
	}
}

func TestSpaceContains(t *testing.T) {
	s := NewHeap().AddSpace(10)
	a, _ := s.Alloc(3)
	if !s.Contains(a) || !s.Contains(a.Add(2)) {
		t.Error("Contains rejects allocated address")
	}
	if s.Contains(a.Add(3)) {
		t.Error("Contains accepts unallocated address")
	}
	if s.Contains(MakeAddr(3, 1)) {
		t.Error("Contains accepts foreign space")
	}
	if s.Contains(Nil) {
		t.Error("Contains accepts nil")
	}
}

func TestHeapLoadStore(t *testing.T) {
	h := NewHeap()
	s := h.AddSpace(100)
	if s.ID() != 1 {
		t.Fatalf("first space id = %d", s.ID())
	}
	a, _ := s.Alloc(5)
	h.Store(a.Add(2), 0xcafe)
	if got := h.Load(a.Add(2)); got != 0xcafe {
		t.Errorf("Load = %#x", got)
	}
	if got := h.Load(a); got != 0 {
		t.Errorf("fresh word = %#x", got)
	}
}

func TestHeapCopyAcrossSpaces(t *testing.T) {
	h := NewHeap()
	s1 := h.AddSpace(16)
	s2 := h.AddSpace(16)
	src, _ := s1.Alloc(4)
	dst, _ := s2.Alloc(4)
	for i := uint64(0); i < 4; i++ {
		h.Store(src.Add(i), uint64(i)*3+1)
	}
	h.Copy(dst, src, 4)
	for i := uint64(0); i < 4; i++ {
		if h.Load(dst.Add(i)) != uint64(i)*3+1 {
			t.Fatalf("word %d mismatch after copy", i)
		}
	}
}

func TestReplaceSpace(t *testing.T) {
	h := NewHeap()
	s := h.AddSpace(8)
	id := s.ID()
	a, _ := s.Alloc(2)
	h.Store(a, 99)
	ns := h.ReplaceSpace(id, 32)
	if ns.ID() != id {
		t.Fatalf("replaced space id changed: %d", ns.ID())
	}
	if ns.Capacity() != 32 || ns.Used() != 0 {
		t.Errorf("replaced space cap=%d used=%d", ns.Capacity(), ns.Used())
	}
	if h.Space(id) != ns {
		t.Error("heap still returns old space")
	}
}

func TestWordsAliasing(t *testing.T) {
	h := NewHeap()
	s := h.AddSpace(10)
	a, _ := s.Alloc(4)
	w := h.Words(a, 4)
	w[1] = 7
	if h.Load(a.Add(1)) != 7 {
		t.Error("Words view does not alias storage")
	}
}

func TestAllocStressProperty(t *testing.T) {
	// Sequential allocations never overlap and fill the space exactly.
	f := func(sizes []uint8) bool {
		s := NewHeap().AddSpace(4096)
		var prevEnd uint64 = 1
		for _, raw := range sizes {
			n := uint64(raw%32) + 1
			a, ok := s.Alloc(n)
			if !ok {
				return s.Free() < n
			}
			if a.Offset() != prevEnd {
				return false
			}
			prevEnd = a.Offset() + n
		}
		return s.Used() == prevEnd-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGrowSpacePreservesContents(t *testing.T) {
	h := NewHeap()
	s := h.AddSpace(8)
	a, _ := s.Alloc(4)
	for i := uint64(0); i < 4; i++ {
		h.Store(a.Add(i), 100+i)
	}
	g := h.GrowSpace(s.ID(), 64)
	if g.Capacity() != 64 || g.Used() != 4 {
		t.Fatalf("grown space cap=%d used=%d", g.Capacity(), g.Used())
	}
	for i := uint64(0); i < 4; i++ {
		if h.Load(a.Add(i)) != 100+i {
			t.Fatalf("word %d lost in grow", i)
		}
	}
	b, ok := g.Alloc(60)
	if !ok || b.Offset() != 5 {
		t.Fatalf("alloc after grow: %v %v", b, ok)
	}
}

func TestGrowSpaceShrinkBelowUsedPanics(t *testing.T) {
	h := NewHeap()
	s := h.AddSpace(16)
	s.Alloc(10)
	defer func() {
		if recover() == nil {
			t.Fatal("shrink below used did not panic")
		}
	}()
	h.GrowSpace(s.ID(), 5)
}

func TestPanicsOnInvalidOperations(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	h := NewHeap()
	h.AddSpace(8)
	assertPanics("AddSpace too large", func() { h.AddSpace(MaxSpaceWords) })
	assertPanics("ReplaceSpace(0)", func() { h.ReplaceSpace(0, 8) })
	assertPanics("ReplaceSpace(99)", func() { h.ReplaceSpace(99, 8) })
	assertPanics("FreeSpace(0)", func() { h.FreeSpace(0) })
	assertPanics("FreeSpace(99)", func() { h.FreeSpace(99) })
	assertPanics("SpaceOf(nil)", func() { h.SpaceOf(Nil) })
	assertPanics("SpaceOf(unknown)", func() { h.SpaceOf(MakeAddr(42, 1)) })
}

func TestFreeSpaceFaultsDanglingAccess(t *testing.T) {
	h := NewHeap()
	s := h.AddSpace(8)
	a, _ := s.Alloc(2)
	h.FreeSpace(s.ID())
	defer func() {
		if recover() == nil {
			t.Fatal("dangling load did not fault")
		}
	}()
	h.Load(a)
}

func TestSpaceOfValid(t *testing.T) {
	h := NewHeap()
	s := h.AddSpace(8)
	a, _ := s.Alloc(1)
	if h.SpaceOf(a) != s {
		t.Fatal("SpaceOf returned wrong space")
	}
}

func TestAddrString(t *testing.T) {
	if got := MakeAddr(3, 255).String(); got != "3:0xff" {
		t.Errorf("String = %q", got)
	}
}
