package mem

import "testing"

// TestFreshArenaCapacity pins the fresh-arena sizing rule: a new space's
// backing array holds the next power of two at or above capacity+1 words
// (the +1 is the reserved offset 0), with no minimum — a reserved empty
// space costs one word and a small large-object space about its object.
func TestFreshArenaCapacity(t *testing.T) {
	for _, c := range []struct{ capacity, want uint64 }{
		{0, 1},
		{1, 2},
		{64, 128},
		{120, 128},
		{256, 512},
		{4095, 4096},
		{4096, 8192},
		{70000, 131072},
	} {
		s := NewHeap().AddSpace(c.capacity)
		if got := uint64(cap(s.Raw())); got != c.want {
			t.Errorf("AddSpace(%d): arena capacity %d words, want %d", c.capacity, got, c.want)
		}
		if s.Capacity() != c.capacity {
			t.Errorf("AddSpace(%d): Capacity() = %d", c.capacity, s.Capacity())
		}
	}
}

// TestFreedArenaReused: a freed space's arena goes to the heap's pool and
// backs the next space it can hold, with its stale words scrubbed on
// allocation; a request no pooled arena can hold gets a fresh arena
// rounded by the same rule.
func TestFreedArenaReused(t *testing.T) {
	h := NewHeap()
	old := h.AddSpace(100)
	a, _ := old.Alloc(100)
	scribble(old, a, 100)
	backing := &old.Raw()[:1][0]
	h.FreeSpace(old.ID())

	s := h.AddSpace(60)
	if got := cap(s.Raw()); got != 128 {
		t.Errorf("reused arena capacity %d words, want the freed arena's 128", got)
	}
	if &s.Raw()[:1][0] != backing {
		t.Error("AddSpace after FreeSpace did not reuse the pooled arena")
	}
	allocAndCheckZero(t, s, 60)

	if got := cap(h.AddSpace(200).Raw()); got != 256 {
		t.Errorf("fresh arena beside a drained pool: capacity %d words, want 256", got)
	}
}
