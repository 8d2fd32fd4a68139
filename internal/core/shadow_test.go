package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// The shadow-graph test drives every collector configuration with the same
// randomized mutator and checks, operation by operation and at the end,
// that the simulated heap is isomorphic to a Go-side shadow model. This is
// the strongest correctness check in the suite: any evacuation, barrier,
// marker, or pretenuring bug shows up as a divergence.

type shadowNode struct {
	kind obj.Kind
	site obj.SiteID
	raw  []uint64      // raw field values (non-pointer fields)
	ptrs []*shadowNode // pointer fields (nil allowed); indices align with mask
	mask uint64
	n    uint64
}

type shadowState struct {
	roots []*shadowNode // mirrors root frame slots 1..len(roots)
}

func runShadow(t *testing.T, name string, mkCollector func(e *testEnv) Collector, seed int64, ops int) {
	t.Helper()
	const nRoots = 8
	e := newEnv(nRoots)
	c := mkCollector(e)
	sh := &shadowState{roots: make([]*shadowNode, nRoots)}
	rng := rand.New(rand.NewSource(seed))

	slotOf := func(r int) int { return r + 1 }

	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // allocate a new object referencing current roots
			r := rng.Intn(nRoots)
			kind := obj.Kind(rng.Intn(3))
			var n uint64
			var mask uint64
			switch kind {
			case obj.Record:
				n = uint64(rng.Intn(6))
				mask = uint64(rng.Intn(1 << n))
			case obj.PtrArray:
				n = uint64(rng.Intn(8))
				mask = (1 << n) - 1
			case obj.RawArray:
				n = uint64(rng.Intn(16))
			}
			site := obj.SiteID(rng.Intn(8) + 1)
			a := c.Alloc(kind, n, site, mask)
			node := &shadowNode{kind: kind, site: site, mask: mask, n: n,
				raw: make([]uint64, n), ptrs: make([]*shadowNode, n)}
			for i := uint64(0); i < n; i++ {
				if kind != obj.RawArray && (mask>>i)&1 == 1 {
					src := rng.Intn(nRoots)
					if sh.roots[src] != nil && rng.Intn(3) > 0 {
						c.InitField(a, i, e.stack.Slot(slotOf(src)))
						node.ptrs[i] = sh.roots[src]
					}
				} else {
					v := rng.Uint64()
					c.InitField(a, i, v)
					node.raw[i] = v
				}
			}
			e.stack.SetSlot(slotOf(r), uint64(a))
			sh.roots[r] = node
		case 5, 6: // mutate a pointer field of a root object
			r := rng.Intn(nRoots)
			node := sh.roots[r]
			if node == nil || node.kind == obj.RawArray || node.n == 0 {
				continue
			}
			i := uint64(rng.Intn(int(node.n)))
			if (node.mask>>i)&1 != 1 {
				continue
			}
			src := rng.Intn(nRoots)
			a := mem.Addr(e.stack.Slot(slotOf(r)))
			if sh.roots[src] == nil {
				c.StoreField(a, i, uint64(mem.Nil), true)
				node.ptrs[i] = nil
			} else {
				c.StoreField(a, i, e.stack.Slot(slotOf(src)), true)
				node.ptrs[i] = sh.roots[src]
			}
		case 7: // mutate a raw field
			r := rng.Intn(nRoots)
			node := sh.roots[r]
			if node == nil || node.n == 0 {
				continue
			}
			i := uint64(rng.Intn(int(node.n)))
			if node.kind != obj.RawArray && (node.mask>>i)&1 == 1 {
				continue
			}
			v := rng.Uint64()
			a := mem.Addr(e.stack.Slot(slotOf(r)))
			c.StoreField(a, i, v, false)
			node.raw[i] = v
		case 8: // drop a root
			r := rng.Intn(nRoots)
			e.stack.SetSlot(slotOf(r), uint64(mem.Nil))
			sh.roots[r] = nil
		case 9: // force a collection
			c.Collect(rng.Intn(4) == 0)
		}
		if op%251 == 0 {
			checkShadow(t, name, c, e, sh, nRoots)
		}
	}
	c.Collect(true)
	checkShadow(t, name, c, e, sh, nRoots)
}

// checkShadow verifies the simulated graph reachable from the root slots is
// isomorphic to the shadow graph, with identical kinds, sizes, sites, raw
// values, and sharing structure.
func checkShadow(t *testing.T, name string, c Collector, e *testEnv, sh *shadowState, nRoots int) {
	t.Helper()
	seen := map[mem.Addr]*shadowNode{}
	var walk func(a mem.Addr, node *shadowNode, path string)
	walk = func(a mem.Addr, node *shadowNode, path string) {
		if node == nil {
			if !a.IsNil() {
				t.Fatalf("%s: %s: shadow nil but heap has %v", name, path, a)
			}
			return
		}
		if a.IsNil() {
			t.Fatalf("%s: %s: heap nil but shadow has node", name, path)
		}
		if prev, ok := seen[a]; ok {
			if prev != node {
				t.Fatalf("%s: %s: sharing mismatch at %v", name, path, a)
			}
			return
		}
		seen[a] = node
		o := obj.Decode(c.Heap(), a)
		if o.Kind != node.kind || o.Len != node.n || o.Site != node.site {
			t.Fatalf("%s: %s: object %v is %v/%d/site%d, want %v/%d/site%d",
				name, path, a, o.Kind, o.Len, o.Site, node.kind, node.n, node.site)
		}
		if o.Kind == obj.Record && o.Mask != node.mask {
			t.Fatalf("%s: %s: mask %#x want %#x", name, path, o.Mask, node.mask)
		}
		for i := uint64(0); i < o.Len; i++ {
			v := c.Heap().Load(o.PayloadAddr(i))
			if o.IsPtrField(i) {
				walk(mem.Addr(v), node.ptrs[i], fmt.Sprintf("%s.%d", path, i))
			} else if v != node.raw[i] {
				t.Fatalf("%s: %s.%d: raw %#x want %#x", name, path, i, v, node.raw[i])
			}
		}
	}
	for r := 0; r < nRoots; r++ {
		walk(mem.Addr(e.stack.Slot(r+1)), sh.roots[r], fmt.Sprintf("root%d", r))
	}
}

func shadowConfigs() map[string]func(e *testEnv) Collector {
	pol := NewPretenurePolicy(map[obj.SiteID]PretenureDecision{3: {}, 5: {}})
	return map[string]func(e *testEnv) Collector{
		"semispace": func(e *testEnv) Collector {
			return NewSemispace(e.stack, e.meter, nil, Config{
				BudgetWords: 1 << 20, InitialWords: 512})
		},
		"semispace-tight": func(e *testEnv) Collector {
			return NewSemispace(e.stack, e.meter, nil, Config{
				BudgetWords: 8192, InitialWords: 256})
		},
		"gen": func(e *testEnv) Collector {
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 1 << 20, NurseryWords: 512})
		},
		"gen-tight": func(e *testEnv) Collector {
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 12288, NurseryWords: 256})
		},
		"gen-markers": func(e *testEnv) Collector {
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 1 << 20, NurseryWords: 512, MarkerN: 3})
		},
		"gen-pretenure": func(e *testEnv) Collector {
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 1 << 20, NurseryWords: 512, Pretenure: pol})
		},
		"gen-full": func(e *testEnv) Collector {
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 1 << 20, NurseryWords: 512, MarkerN: 4, Pretenure: pol})
		},
		"gen-cards": func(e *testEnv) Collector {
			return NewGenerational(e.stack, e.meter, nil, Config{
				BudgetWords: 1 << 20, NurseryWords: 512, CardTable: true})
		},
	}
}

func TestShadowGraphAllConfigs(t *testing.T) {
	for name, mk := range shadowConfigs() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				runShadow(t, name, mk, seed, 4000)
			})
		}
	}
}

// TestShadowGraphDeepStack interleaves graph operations with deep call
// chains so that collections occur at a variety of stack depths, with the
// frames themselves holding live references.
func TestShadowGraphDeepStack(t *testing.T) {
	for name, mk := range shadowConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newEnv(4)
			c := mk(e)
			fi := ptrFrame(e)
			rng := rand.New(rand.NewSource(99))
			// Build a persistent list in root slot 1 while recursing.
			e.stack.SetSlot(1, uint64(mem.Nil))
			total := 0
			var recurse func(depth int)
			recurse = func(depth int) {
				e.stack.Call(fi)
				defer e.stack.Return()
				p := c.Alloc(obj.Record, 2, 1, 0b10)
				c.InitField(p, 0, uint64(depth))
				e.stack.SetSlot(1, uint64(p))
				for i := 0; i < 3; i++ {
					c.Alloc(obj.Record, 2, 2, 0) // garbage
				}
				if depth < 120 && rng.Intn(10) > 0 {
					recurse(depth + 1)
				}
				// After deeper calls (and possible GCs), our slot must
				// still point at our record.
				q := mem.Addr(e.stack.Slot(1))
				if got := c.LoadField(q, 0); got != uint64(depth) {
					t.Fatalf("depth %d: frame pointee = %d", depth, got)
				}
				total++
			}
			for round := 0; round < 30; round++ {
				recurse(0)
			}
			if total == 0 {
				t.Fatal("no recursion happened")
			}
		})
	}
}
