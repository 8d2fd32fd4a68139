package mem

import "testing"

// TestAddrAddOverflowPanics: offsets that would carry into the space-id
// bits must fault loudly instead of silently aliasing another space.
func TestAddrAddOverflowPanics(t *testing.T) {
	a := MakeAddr(3, uint64(offsetMask)-1)
	if got := a.Add(1); got.Space() != 3 || got.Offset() != uint64(offsetMask) {
		t.Fatalf("Add(1) at boundary = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add past offsetBits did not panic")
		}
	}()
	a.Add(2)
}

// allocAndCheckZero allocates n words and fails if any handed-out word is
// non-zero.
func allocAndCheckZero(t *testing.T, s *Space, n uint64) Addr {
	t.Helper()
	a, ok := s.Alloc(n)
	if !ok {
		t.Fatalf("Alloc(%d) failed at top %d", n, s.top)
	}
	for i := uint64(0); i < n; i++ {
		if w := s.words[a.Offset()+i]; w != 0 {
			t.Fatalf("word %d of %d-word alloc at %v = %#x, want 0", i, n, a, w)
		}
	}
	return a
}

// scribble fills an allocated region with junk, as a mutator would.
func scribble(s *Space, a Addr, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.words[a.Offset()+i] = ^uint64(0)
	}
}

// TestLazyZeroReusedArena is the regression test for lazy zeroing: after a
// Reset, the arena hands out stale dirty words, and every allocation must
// still observe zeroed memory — including allocations that straddle the
// dirty high-water mark into never-used (already-zero) territory.
func TestLazyZeroReusedArena(t *testing.T) {
	s := NewHeap().AddSpace(64)
	a := allocAndCheckZero(t, s, 24)
	scribble(s, a, 24)
	s.Reset() // dirtyTo is now 25

	// Entirely below the high-water mark: needs the memclr.
	b := allocAndCheckZero(t, s, 10)
	scribble(s, b, 10)
	// Straddling the mark: words 11..24 are dirty, 25..40 still fresh.
	allocAndCheckZero(t, s, 30)

	// A second, shallower cycle must not lower the mark: after this Reset
	// the dirty region is still the 41-word high-water extent.
	s.Reset()
	c := allocAndCheckZero(t, s, 40)
	scribble(s, c, 40)

	s.Reset()
	allocAndCheckZero(t, s, 63) // full-arena pass over the dirtiest state
}

// TestLazyZeroSurvivesGrow: growing a space preserves contents below top
// and must keep handing out zeroed words above it, even though the grown
// arena is a fresh allocation with a reset high-water mark.
func TestLazyZeroSurvivesGrow(t *testing.T) {
	h := NewHeap()
	s := h.AddSpace(16)
	a, _ := s.Alloc(8)
	scribble(s, a, 8)
	s = h.GrowSpace(s.ID(), 64)
	for i := uint64(0); i < 8; i++ {
		if h.Load(a.Add(i)) != ^uint64(0) {
			t.Fatal("grow lost contents")
		}
	}
	allocAndCheckZero(t, s, 40)
}
