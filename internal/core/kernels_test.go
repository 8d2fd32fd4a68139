package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// driveKernelWorkload runs a fixed mutator program against c exercising
// every kernel path: record and array allocation, LOS bypass, pointer
// mutation through the write barrier, minor and major collections, and
// death of large objects.
func driveKernelWorkload(t testing.TB, c Collector, e *testEnv) {
	e.stack.SetSlot(1, uint64(mem.Nil))
	for round := 0; round < 6; round++ {
		// A burst of long-lived cons cells (site varies per round so a
		// pretenure policy can select a subset).
		for i := 0; i < 300; i++ {
			cell := c.Alloc(obj.Record, 2, obj.SiteID(10+round), 0b10)
			c.InitField(cell, 0, uint64(round*1000+i))
			c.InitField(cell, 1, e.stack.Slot(1))
			e.stack.SetSlot(1, uint64(cell))
		}
		// A pointer-free record from the OnlyOldRefs site (scan elision).
		c.InitField(c.Alloc(obj.Record, 4, 50, 0), 0, uint64(round))

		// An old pointer array mutated to reference young cells: the write
		// barrier's remembered set must drag them across the collection.
		arr := c.Alloc(obj.PtrArray, 16, 20, 0)
		e.stack.SetSlot(2, uint64(arr))
		c.Collect(false)
		for i := 0; i < 16; i++ {
			young := c.Alloc(obj.Record, 2, 21, 0)
			c.InitField(young, 0, uint64(i))
			c.StoreField(mem.Addr(e.stack.Slot(2)), uint64(i), uint64(young), true)
		}

		// Large raw and pointer arrays through the mark-sweep LOS; the
		// pointer array references the list so LOS scanning has work.
		big := c.Alloc(obj.RawArray, 2048, 30, 0)
		c.InitField(big, 0, 42)
		lp := c.Alloc(obj.PtrArray, 1500, 31, 0)
		c.StoreField(lp, 0, e.stack.Slot(1), true)
		e.stack.SetSlot(3, uint64(lp)) // previous round's array dies

		// Nursery churn.
		for i := 0; i < 800; i++ {
			c.Alloc(obj.Record, 3, 40, 0b110)
		}
		if round%2 == 1 {
			c.Collect(true)
		}
	}
	// The list must have survived intact: 1800 cells, head value 5299.
	// The walk stops one cell past that, so a cycle fails instead of
	// hanging.
	n, head := 0, mem.Addr(e.stack.Slot(1))
	for a := head; !a.IsNil() && n <= 6*300; a = mem.Addr(c.LoadField(a, 1)) {
		n++
	}
	if n != 6*300 {
		t.Fatalf("list has %d cells, want %d", n, 6*300)
	}
	if v := c.LoadField(head, 0); v != 5299 {
		t.Fatalf("head value = %d, want 5299", v)
	}
}

// heapImage flattens every space of c's heap — ids, sizes, and all
// allocated words — into one comparable word stream.
func heapImage(c Collector) []uint64 {
	h := c.Heap()
	var img []uint64
	for id := 1; id < h.NumSpaces(); id++ {
		sid := mem.SpaceID(id)
		sp := h.Space(sid)
		img = append(img, uint64(id))
		if sp == nil {
			img = append(img, ^uint64(0))
			continue
		}
		img = append(img, sp.Used(), sp.Capacity())
		if sp.Used() > 0 {
			img = append(img, h.Words(mem.MakeAddr(sid, 1), sp.Used())...)
		}
	}
	return img
}

// kernelConfigs is the mini-sweep matrix for the equivalence test: every
// collector configuration with a distinct kernel path.
func kernelConfigs() []struct {
	name string
	make func(e *testEnv) Collector
} {
	gen := func(cfg Config) func(e *testEnv) Collector {
		return func(e *testEnv) Collector { return NewGenerational(e.stack, e.meter, nil, cfg) }
	}
	pol := NewPretenurePolicy(map[obj.SiteID]PretenureDecision{
		12: {},
		50: {OnlyOldRefs: true},
	})
	return []struct {
		name string
		make func(e *testEnv) Collector
	}{
		{"semispace", func(e *testEnv) Collector {
			return NewSemispace(e.stack, e.meter, nil, Config{
				BudgetWords: 64 * 1024, InitialWords: 2 * 1024,
			})
		}},
		{"generational", gen(Config{BudgetWords: 64 * 1024, NurseryWords: 4 * 1024})},
		{"gen+cards", gen(Config{BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, CardTable: true})},
		{"gen+markers", gen(Config{BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, MarkerN: 5})},
		{"gen+aging", gen(Config{BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, AgingMinors: 2})},
		{"gen+pretenure+elide", gen(Config{
			BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, MarkerN: 5,
			Pretenure: pol, ScanElision: true,
		})},
		{"gen+marksweep", gen(Config{
			BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, OldCollector: OldMarkSweep,
		})},
		{"gen+markcompact", gen(Config{
			BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, OldCollector: OldMarkCompact,
		})},
		{"gen+marksweep+pretenure", gen(Config{
			BudgetWords: 64 * 1024, NurseryWords: 4 * 1024, MarkerN: 5,
			OldCollector: OldMarkSweep, Pretenure: pol,
		})},
		{"gen+markcompact+aging", gen(Config{
			BudgetWords: 64 * 1024, NurseryWords: 4 * 1024,
			OldCollector: OldMarkCompact, AgingMinors: 2,
		})},
		{"gen+markcompact+cards", gen(Config{
			BudgetWords: 64 * 1024, NurseryWords: 4 * 1024,
			OldCollector: OldMarkCompact, CardTable: true,
		})},
	}
}

// kernelImagePath pins driveKernelWorkload's outputs for every
// kernelConfigs entry, one line per configuration.
const kernelImagePath = "testdata/kernel_images.txt"

// kernelImageLine runs driveKernelWorkload plus a final major collection
// under one kernel configuration and renders what it leaves behind: an
// FNV-1a digest and the length of the heap image, the GC stats and the
// meter breakdown.
func kernelImageLine(t *testing.T, name string, mk func(e *testEnv) Collector) string {
	e := newEnv(4)
	c := mk(e)
	driveKernelWorkload(t, c, e)
	c.Collect(true)
	img := heapImage(c)
	h := uint64(fnvOffset)
	for _, w := range img {
		h = fnv1a(h, w)
	}
	return fmt.Sprintf("%s\timage %016x/%d\tstats %+v\ttimes %+v",
		name, h, len(img), *c.Stats(), e.meter.Snapshot())
}

// TestKernelEquivalence pins, for every configuration of the kernel
// mini-sweep, the heap image, GC stats and simulated cycles. The pins
// were recorded while a preserved copy of the pre-optimization kernels
// still shipped, and both kernel sets produced them, so a kernel that
// matches them is equivalent to that reference. kernelSweepCollectors
// has no non-moving old generation, so this is the unit-level pin of the
// mark-sweep and mark-compact kernels. A change that intends to move a
// pin replaces that configuration's line in kernelImagePath with the
// line the failure prints, and explains the diff.
func TestKernelEquivalence(t *testing.T) {
	data, err := os.ReadFile(kernelImagePath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, _, _ := strings.Cut(line, "\t")
		want[name] = line
	}
	for _, kc := range kernelConfigs() {
		t.Run(kc.name, func(t *testing.T) {
			if got := kernelImageLine(t, kc.name, kc.make); got != want[kc.name] {
				t.Errorf("kernel outputs changed:\n got %s\n pin %s", got, want[kc.name])
			}
		})
	}
}

// kernelSweepCollectors is the kernel-stress sweep's configuration
// matrix: the six collector variants of the paper's copying collectors,
// each with a distinct kernel path, at a budget large enough that the
// stress program's whole live list is re-copied by every major.
func kernelSweepCollectors() []func(e *testEnv) Collector {
	gen := func(cfg Config) func(e *testEnv) Collector {
		return func(e *testEnv) Collector { return NewGenerational(e.stack, e.meter, nil, cfg) }
	}
	pol := NewPretenurePolicy(map[obj.SiteID]PretenureDecision{
		12: {},
		50: {OnlyOldRefs: true},
	})
	budget, nursery := uint64(1<<20), uint64(16*1024)
	return []func(e *testEnv) Collector{
		func(e *testEnv) Collector {
			return NewSemispace(e.stack, e.meter, nil, Config{
				BudgetWords: budget, InitialWords: 64 * 1024,
			})
		},
		gen(Config{BudgetWords: budget, NurseryWords: nursery}),
		gen(Config{BudgetWords: budget, NurseryWords: nursery, CardTable: true}),
		gen(Config{BudgetWords: budget, NurseryWords: nursery, MarkerN: 5}),
		gen(Config{BudgetWords: budget, NurseryWords: nursery, AgingMinors: 2}),
		gen(Config{
			BudgetWords: budget, NurseryWords: nursery, MarkerN: 5,
			Pretenure: pol, ScanElision: true,
		}),
	}
}

// kernelSweepFacts are the deterministic outputs of one kernel-stress
// sweep: a checksum folding every surviving list cell plus the aggregate
// collector statistics and simulated collector cycles across all
// configurations. They are a pure function of the sweep definition.
type kernelSweepFacts struct {
	configs                             int
	check, numGC, bytesCopied, gcCycles uint64
}

// fnvOffset is the FNV-1a offset basis, the hash of no input.
const fnvOffset = 14695981039346656037

// fnv1a folds v into the running FNV-1a hash h.
func fnv1a(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// runKernelSweep drives the kernel-stress mutator through every sweep
// configuration and folds the facts.
func runKernelSweep(tb testing.TB) kernelSweepFacts {
	facts := kernelSweepFacts{check: fnvOffset}
	for _, mk := range kernelSweepCollectors() {
		facts.configs++
		e := newEnv(3)
		c := mk(e)
		runKernelStress(tb, c, e)

		// Fold the surviving list: cell count and every stored value.
		n := uint64(0)
		for a := mem.Addr(e.stack.Slot(1)); !a.IsNil(); a = mem.Addr(c.LoadField(a, 1)) {
			n++
			facts.check = fnv1a(facts.check, c.LoadField(a, 0))
		}
		facts.check = fnv1a(facts.check, n)
		st := c.Stats()
		facts.numGC += st.NumGC
		facts.bytesCopied += st.BytesCopied
		facts.gcCycles += uint64(e.meter.Snapshot().GC())
		facts.check = fnv1a(facts.check, st.ObjectsCopied)
		facts.check = fnv1a(facts.check, st.SSBProcessed)
	}
	return facts
}

// runKernelStress is the sweep's mutator program: long-lived cons
// bursts, write barriers into an old pointer array, LOS raw/pointer
// arrays, nursery churn, and repeated minor and major collections each
// round. Unlike a paper workload, whose time goes to simulating the
// mutator, it keeps the collectors hot: the live list is built once per
// round but re-copied by every later major (and, for the semispace
// collector, every collection).
func runKernelStress(tb testing.TB, c Collector, e *testEnv) {
	const rounds = 8
	e.stack.SetSlot(1, uint64(mem.Nil))
	for round := 0; round < rounds; round++ {
		for i := 0; i < 1000; i++ {
			cell := c.Alloc(obj.Record, 2, obj.SiteID(10+round%6), 0b10)
			c.InitField(cell, 0, uint64(round*10000+i))
			c.InitField(cell, 1, e.stack.Slot(1))
			e.stack.SetSlot(1, uint64(cell))
		}
		// Pointer-free record from the OnlyOldRefs site (scan elision).
		c.InitField(c.Alloc(obj.Record, 4, 50, 0), 0, uint64(round))

		// An old pointer array reachable across collections.
		arr := c.Alloc(obj.PtrArray, 64, 20, 0)
		e.stack.SetSlot(2, uint64(arr))
		c.Collect(false)

		// Large raw and pointer arrays through the mark-sweep LOS; the
		// pointer array references the list so LOS scanning has work. The
		// previous round's arrays die.
		big := c.Alloc(obj.RawArray, 4096, 30, 0)
		c.InitField(big, 0, 42)
		lp := c.Alloc(obj.PtrArray, 2000, 31, 0)
		c.StoreField(lp, 0, e.stack.Slot(1), true)
		e.stack.SetSlot(3, uint64(lp))

		// Barrier-mutate-and-collect inner rounds: each stores young
		// pointers into the old array (SSB or card traffic), churns the
		// nursery a little, and collects — three minors re-scanning the
		// remembered set, then a major re-copying the whole live list.
		for k := 0; k < 4; k++ {
			for i := 0; i < 64; i++ {
				young := c.Alloc(obj.Record, 2, 21, 0)
				c.InitField(young, 0, uint64(i))
				c.StoreField(mem.Addr(e.stack.Slot(2)), uint64(i), uint64(young), true)
			}
			for i := 0; i < 200; i++ {
				c.Alloc(obj.Record, 3, 40, 0b110)
			}
			c.Collect(k == 3)
		}
	}
	// The full list must have survived every collection; the walk stops
	// one cell past it, so a cycle fails instead of hanging.
	n := 0
	for a := mem.Addr(e.stack.Slot(1)); !a.IsNil() && n <= rounds*1000; a = mem.Addr(c.LoadField(a, 1)) {
		n++
	}
	if n != rounds*1000 {
		tb.Fatalf("kernel sweep list has %d cells, want %d", n, rounds*1000)
	}
}

// TestKernelSweepFacts pins the kernel-stress sweep's simulated facts
// exactly. The sweep keeps every copying kernel path hot, so a change to
// any collector charge, copy or barrier drain moves at least one fact.
func TestKernelSweepFacts(t *testing.T) {
	want := kernelSweepFacts{
		configs: 6, check: 10419385559500701569, numGC: 240,
		bytesCopied: 13743936, gcCycles: 17708779,
	}
	if got := runKernelSweep(t); got != want {
		t.Errorf("kernel sweep facts %+v, want %+v", got, want)
	}
}

// fillNurseryGarbage allocates dead records filling most of a 4K-word
// nursery (800 cells × 4 words) without triggering an implicit collection.
func fillNurseryGarbage(c Collector) {
	for i := 0; i < 800; i++ {
		c.Alloc(obj.Record, 2, 40, 0b01)
	}
}

// TestMinorGCSteadyStateAllocsZero pins the tentpole's zero-allocation
// property: once the pooled buffers have grown to the working-set size, a
// steady-state minor collection performs no Go heap allocations at all.
func TestMinorGCSteadyStateAllocsZero(t *testing.T) {
	e := newEnv(2)
	c := newGen(e, Config{BudgetWords: 1 << 20, NurseryWords: 4 * 1024})
	consList(t, c, e, 1, 100, 1)
	for i := 0; i < 5; i++ { // warm up pools and the tenured arena
		fillNurseryGarbage(c)
		c.Collect(false)
	}
	allocs := testing.AllocsPerRun(10, func() {
		fillNurseryGarbage(c)
		c.Collect(false)
	})
	if allocs != 0 {
		t.Fatalf("steady-state minor GC allocates %.1f objects/run, want 0", allocs)
	}
}

// TestMinorGCSteadyStateAllocsZeroWithBarrier is the same property with a
// populated remembered set: SSB draining must not allocate either.
func TestMinorGCSteadyStateAllocsZeroWithBarrier(t *testing.T) {
	e := newEnv(2)
	c := newGen(e, Config{BudgetWords: 1 << 20, NurseryWords: 4 * 1024})
	arr := c.Alloc(obj.PtrArray, 16, 20, 0)
	e.stack.SetSlot(1, uint64(arr))
	c.Collect(false) // tenure the array
	mutate := func() {
		for i := 0; i < 16; i++ {
			y := c.Alloc(obj.Record, 2, 21, 0)
			c.StoreField(mem.Addr(e.stack.Slot(1)), uint64(i), uint64(y), true)
		}
		for i := 0; i < 700; i++ {
			c.Alloc(obj.Record, 2, 40, 0)
		}
	}
	for i := 0; i < 5; i++ {
		mutate()
		c.Collect(false)
	}
	allocs := testing.AllocsPerRun(10, func() {
		mutate()
		c.Collect(false)
	})
	if allocs != 0 {
		t.Fatalf("steady-state minor GC with barrier allocates %.1f objects/run, want 0", allocs)
	}
}

// BenchmarkEvacuate measures the bulk-copy path: every iteration is a full
// semispace collection copying a 2000-cell live list.
func BenchmarkEvacuate(b *testing.B) {
	e := newEnv(2)
	c := NewSemispace(e.stack, e.meter, nil, Config{
		BudgetWords: 1 << 20, InitialWords: 32 * 1024,
	})
	consList(b, c, e, 1, 2000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Collect(true)
	}
}

// BenchmarkScanObject measures the field-scan kernel alone on a sparse
// 64-field record (no evacuation: nothing is condemned).
func BenchmarkScanObject(b *testing.B) {
	heap := mem.NewHeap()
	sp := heap.AddSpace(1024)
	a, ok := obj.Alloc(heap, sp, obj.Record, 64, 1, 0x8000_0401_0040_0011)
	if !ok {
		b.Fatal("alloc failed")
	}
	c := base{heap: heap, meter: costmodel.NewMeter()}
	ev := c.evacuation(nil, sp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.scanObject(a)
	}
}

// BenchmarkKernelSweep measures the full kernel-stress sweep of
// TestKernelSweepFacts (one iteration = every configuration).
func BenchmarkKernelSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runKernelSweep(b)
	}
}

// BenchmarkMinorGC measures a steady-state minor collection: a mostly-dead
// nursery over a small tenured live set, the simulator's hottest loop.
func BenchmarkMinorGC(b *testing.B) {
	e := newEnv(2)
	c := newGen(e, Config{BudgetWords: 1 << 20, NurseryWords: 4 * 1024})
	consList(b, c, e, 1, 100, 1)
	for i := 0; i < 3; i++ {
		fillNurseryGarbage(c)
		c.Collect(false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillNurseryGarbage(c)
		c.Collect(false)
	}
}
