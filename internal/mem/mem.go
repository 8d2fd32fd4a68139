// Package mem provides the word-addressed arena memory that the whole
// simulated runtime lives in.
//
// The paper's runtime manages raw machine memory on a DEC Alpha; we cannot
// (and must not) take addresses into Go's own garbage-collected heap, so
// every simulated object lives in a Space: a flat []uint64 arena with a bump
// allocation pointer. A simulated pointer is an Addr packing a space id and
// a word offset. The Go collector never traces simulated object graphs.
package mem

import "fmt"

// WordSize is the size in bytes of one simulated machine word.
// The paper's machine is a 64-bit Alpha, so one word is 8 bytes.
const WordSize = 8

// Addr is a simulated pointer: a space id in the high bits and a word
// offset in the low bits. The zero Addr is the simulated nil.
type Addr uint64

const (
	offsetBits = 40
	offsetMask = (Addr(1) << offsetBits) - 1

	// MaxSpaceWords is the largest number of words a single space can hold.
	MaxSpaceWords = 1 << offsetBits
)

// Nil is the simulated null pointer.
const Nil Addr = 0

// MakeAddr packs a space id and a word offset into an Addr.
func MakeAddr(space SpaceID, offset uint64) Addr {
	return Addr(space)<<offsetBits | Addr(offset)
}

// Space returns the space id component of the address.
func (a Addr) Space() SpaceID { return SpaceID(a >> offsetBits) }

// Offset returns the word offset component of the address.
func (a Addr) Offset() uint64 { return uint64(a & offsetMask) }

// Add returns the address delta words past a, staying within the same
// space. Overflowing the offset field would silently carry into the space
// id — a wrapped Addr aliases an unrelated space and corrupts the heap
// undetectably — so Add panics instead of wrapping.
func (a Addr) Add(delta uint64) Addr {
	if uint64(a&offsetMask)+delta > uint64(offsetMask) {
		panic(fmt.Sprintf("mem: Addr.Add(%d) overflows offset of %v", delta, a))
	}
	return a + Addr(delta)
}

// IsNil reports whether a is the simulated null pointer.
func (a Addr) IsNil() bool { return a == Nil }

// String renders the address as space:offset for diagnostics.
func (a Addr) String() string {
	if a.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("%d:%#x", a.Space(), a.Offset())
}

// SpaceID names a Space within a Heap. Space id 0 is reserved so that
// Addr(0) can serve as nil.
type SpaceID uint32

// Space is one contiguous arena with bump allocation. Offsets start at 1:
// offset 0 of space 0 would collide with the nil address, and keeping the
// rule uniform between spaces simplifies the math.
//
// Allocations hand out zeroed words. A freshly made arena is already
// zero, so Alloc only spends a memclr on words below dirtyTo — the
// high-water mark of words handed out before the last Reset. On the
// first pass through a fresh arena (the common case: every to-space and
// every post-GC nursery refill up to the previous high-water mark) the
// zeroing loop does not run at all.
type Space struct {
	id      SpaceID
	words   []uint64
	top     uint64 // next free word offset; starts at 1
	limit   uint64 // capacity in words (len(words))
	dirtyTo uint64 // words below this offset may hold stale data
	// recycled marks arenas taken from the heap's pool: their storage
	// beyond the current slice (up to cap) may hold a previous owner's
	// data, so in-place growth must extend the dirty mark over the tail.
	// A fresh arena's tail is still zero and stays lazily clean.
	recycled bool
}

// ID returns the space's id.
func (s *Space) ID() SpaceID { return s.id }

// Alloc reserves n words and returns the address of the first, or false if
// the space is full. The reserved words are zeroed (arenas are reused),
// but only the slice below the dirty high-water mark needs the memclr —
// words never handed out since the arena was made are still zero.
func (s *Space) Alloc(n uint64) (Addr, bool) {
	if s.top+n > s.limit {
		return Nil, false
	}
	base := s.top
	s.top += n
	if base < s.dirtyTo {
		clear(s.words[base:min(s.top, s.dirtyTo)])
	}
	return MakeAddr(s.id, base), true
}

// AllocUnzeroed allocates n words without scrubbing previously-used
// memory. It exists for the evacuator's copy destinations, which are
// fully overwritten by the bulk copy before any read — zeroing them
// first would touch every word twice. Callers must write all n words.
func (s *Space) AllocUnzeroed(n uint64) (Addr, bool) {
	if s.top+n > s.limit {
		return Nil, false
	}
	base := s.top
	s.top += n
	return MakeAddr(s.id, base), true
}

// Used returns the number of words allocated so far.
func (s *Space) Used() uint64 { return s.top - 1 }

// Capacity returns the usable capacity of the space in words.
func (s *Space) Capacity() uint64 { return s.limit - 1 }

// Free returns the number of words still available.
func (s *Space) Free() uint64 { return s.limit - s.top }

// Raw exposes the arena's backing words for kernel hot paths (the Cheney
// scan reads headers and rewrites pointer fields without a per-word space
// lookup). The slice aliases live storage: callers must not retain it
// across a Reset, Replace, or Grow of the space.
func (s *Space) Raw() []uint64 { return s.words }

// Reset discards all allocations, returning the space to empty. The
// abandoned words are not scrubbed here; the dirty high-water mark makes
// the next pass of allocations zero them lazily.
func (s *Space) Reset() {
	if s.top > s.dirtyTo {
		s.dirtyTo = s.top
	}
	s.top = 1
}

// Contains reports whether a points into this space's allocated region.
func (s *Space) Contains(a Addr) bool {
	return a.Space() == s.id && a.Offset() >= 1 && a.Offset() < s.top
}

// Heap is the collection of spaces making up the simulated address space.
// Space ids index into the spaces slice; id 0 is always nil (reserved).
type Heap struct {
	spaces []*Space
	// arenaPool recycles the backing storage of replaced, grown, and freed
	// spaces. Semispace flips and tenured rebuilds would otherwise allocate
	// (and have the Go runtime zero) a multi-megabyte arena per collection;
	// with the pool, steady-state resizes reuse storage and rely on the
	// dirty high-water mark for lazy scrubbing.
	arenaPool [][]uint64
}

// maxPooledArenas bounds the retained storage; beyond it, released arenas
// go back to the Go allocator.
const maxPooledArenas = 8

// newSpace builds a space under id, reusing a pooled arena when one is
// large enough. A recycled arena is stale end to end, so its dirty mark
// covers the whole extent.
func (h *Heap) newSpace(id SpaceID, capacity uint64) *Space {
	if capacity+1 > MaxSpaceWords {
		panic(fmt.Sprintf("mem: space %d capacity %d exceeds max", id, capacity))
	}
	need := capacity + 1
	// Best fit: the smallest pooled arena that is large enough, so a
	// small request does not burn an arena a big resize needs next.
	best := -1
	for i, a := range h.arenaPool {
		if uint64(cap(a)) >= need && (best < 0 || cap(a) < cap(h.arenaPool[best])) {
			best = i
		}
	}
	if best >= 0 {
		a := h.arenaPool[best]
		h.arenaPool[best] = h.arenaPool[len(h.arenaPool)-1]
		h.arenaPool = h.arenaPool[:len(h.arenaPool)-1]
		return &Space{id: id, words: a[:need], top: 1, limit: need, dirtyTo: need, recycled: true}
	}
	// Fresh arenas take power-of-two capacity headroom: a heap whose
	// live set (and with it every resize request) grows monotonically
	// would otherwise defeat both the pool and in-place growth, paying
	// a full allocate-zero-copy cycle per collection.
	return &Space{
		id:      id,
		words:   make([]uint64, need, arenaCap(need)),
		top:     1,
		limit:   need,
		dirtyTo: 1,
	}
}

// arenaCap rounds a fresh arena request up to the next power of two,
// bounding slack at 2x. There is no floor: a one-object large-object
// space or an empty reserved space costs the Go heap about what it
// holds, not a minimum arena.
func arenaCap(need uint64) uint64 {
	c := uint64(1)
	for c < need {
		c <<= 1
	}
	if c > MaxSpaceWords {
		c = MaxSpaceWords
	}
	return c
}

// releaseArena parks a retired space's storage for reuse. A full pool
// evicts its smallest arena when the incoming one is larger — big arenas
// (the semispace and tenured resizes) are the expensive ones to refetch.
func (h *Heap) releaseArena(s *Space) {
	if s == nil {
		return
	}
	if len(h.arenaPool) < maxPooledArenas {
		h.arenaPool = append(h.arenaPool, s.words)
		return
	}
	small := 0
	for i := 1; i < len(h.arenaPool); i++ {
		if cap(h.arenaPool[i]) < cap(h.arenaPool[small]) {
			small = i
		}
	}
	if cap(h.arenaPool[small]) < cap(s.words) {
		h.arenaPool[small] = s.words
	}
}

// NewHeap creates an empty heap with the reserved nil space slot.
func NewHeap() *Heap {
	return &Heap{spaces: make([]*Space, 1, 8)}
}

// AddSpace creates and registers a new space of the given capacity.
func (h *Heap) AddSpace(capacity uint64) *Space {
	id := SpaceID(len(h.spaces))
	s := h.newSpace(id, capacity)
	h.spaces = append(h.spaces, s)
	return s
}

// ReplaceSpace swaps in a fresh space of the given capacity under an
// existing id, discarding the old contents. Collectors use this to resize
// semispaces between collections.
func (h *Heap) ReplaceSpace(id SpaceID, capacity uint64) *Space {
	if int(id) <= 0 || int(id) >= len(h.spaces) {
		panic(fmt.Sprintf("mem: ReplaceSpace of unknown space %d", id))
	}
	h.releaseArena(h.spaces[id])
	s := h.newSpace(id, capacity)
	h.spaces[id] = s
	return s
}

// GrowthError is the panic value for space-capacity failures: a resize
// below the used extent, or a collector's emergency growth that still
// cannot fit a request. It always carries the space id, the words in
// use, and the requested words as fields, so failure handlers and
// regression tests inspect the values instead of parsing the message.
type GrowthError struct {
	Op        string // the failing operation, e.g. "GrowSpace below used"
	Space     SpaceID
	Used      uint64
	Requested uint64
}

func (e GrowthError) Error() string {
	return fmt.Sprintf("mem: %s: space %d: used %d words, requested %d words",
		e.Op, e.Space, e.Used, e.Requested)
}

// GrowSpace resizes the space with the given id to the new capacity,
// preserving its contents and allocation pointer (offsets are stable, so
// all addresses into the space remain valid). Shrinking below the used
// size panics with a GrowthError. Collectors use this to apply
// liveness-ratio resizing policies between collections without moving
// objects.
func (h *Heap) GrowSpace(id SpaceID, capacity uint64) *Space {
	old := h.Space(id)
	if capacity < old.Used() {
		panic(GrowthError{Op: "GrowSpace below used", Space: id, Used: old.Used(), Requested: capacity})
	}
	need := capacity + 1
	if uint64(cap(old.words)) >= need {
		// The arena is already big enough: resize in place, no copy. A
		// recycled arena's tail past the old extent is a previous owner's
		// stale storage, so the dirty mark moves out over the whole new
		// extent; a fresh arena's tail is still zero.
		old.words = old.words[:need]
		old.limit = need
		if old.recycled {
			old.dirtyTo = need
		} else if old.dirtyTo > need {
			old.dirtyTo = need
		}
		return old
	}
	s := h.newSpace(id, capacity)
	copy(s.words, old.words[:old.top])
	s.top = old.top
	h.releaseArena(old)
	h.spaces[id] = s
	return s
}

// FreeSpace releases the space with the given id. Ids are not reused, so a
// dangling simulated pointer into a freed space faults loudly (nil panic)
// instead of silently reading reused memory.
func (h *Heap) FreeSpace(id SpaceID) {
	if int(id) <= 0 || int(id) >= len(h.spaces) {
		panic(fmt.Sprintf("mem: FreeSpace of unknown space %d", id))
	}
	h.releaseArena(h.spaces[id])
	h.spaces[id] = nil
}

// Space returns the space with the given id.
func (h *Heap) Space(id SpaceID) *Space {
	return h.spaces[id]
}

// NumSpaces returns the number of space ids ever issued, including the
// reserved nil slot and freed spaces. Valid ids are 1..NumSpaces()-1.
func (h *Heap) NumSpaces() int { return len(h.spaces) }

// SpaceOf returns the space an address points into.
func (h *Heap) SpaceOf(a Addr) *Space {
	id := a.Space()
	if int(id) <= 0 || int(id) >= len(h.spaces) {
		panic(fmt.Sprintf("mem: address %v has no space", a))
	}
	return h.spaces[id]
}

// Load reads the word at address a.
func (h *Heap) Load(a Addr) uint64 {
	return h.spaces[a.Space()].words[a.Offset()]
}

// Store writes the word at address a.
func (h *Heap) Store(a Addr, v uint64) {
	h.spaces[a.Space()].words[a.Offset()] = v
}

// Words returns a mutable view of n words starting at a. The view aliases
// arena storage; callers must not retain it across a space Reset or Replace.
func (h *Heap) Words(a Addr, n uint64) []uint64 {
	s := h.spaces[a.Space()]
	off := a.Offset()
	return s.words[off : off+n]
}

// Copy copies n words from src to dst, which may be in different spaces.
func (h *Heap) Copy(dst, src Addr, n uint64) {
	copy(h.Words(dst, n), h.Words(src, n))
}
