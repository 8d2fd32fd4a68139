package gcsim_test

import (
	"fmt"

	"tilgc/gcsim"
)

// Build a linked list through the slot-oriented mutator API and let the
// generational collector manage it.
func Example() {
	rt := gcsim.NewRuntime(gcsim.Config{
		Collector:    gcsim.Generational,
		NurseryWords: 1024,
	})
	m := rt.Mutator()
	frame := m.PtrFrame("main", 2)
	m.Call(frame, func() {
		for i := uint64(0); i < 5000; i++ {
			m.ConsInt(1, i, 1, 1)
		}
		fmt.Println("cells:", m.ListLen(1, 2))
	})
	fmt.Println("collected at least once:", rt.Stats().NumGC > 0)
	// Output:
	// cells: 5000
	// collected at least once: true
}

// Run one of the paper's benchmarks under two collector configurations
// and confirm they compute the same answer.
func Example_differential() {
	scale := gcsim.Scale{Repeat: 0.0001}
	a := gcsim.NewRuntime(gcsim.Config{Collector: gcsim.Semispace})
	ca, _ := a.RunBenchmark("Nqueen", scale)
	b := gcsim.NewRuntime(gcsim.Config{Collector: gcsim.GenerationalMarkers})
	cb, _ := b.RunBenchmark("Nqueen", scale)
	fmt.Println("checks agree:", ca == cb)
	fmt.Println("solutions:", ca/1000) // one run: check = count*1000 + positional hash
	// Output:
	// checks agree: true
	// solutions: 724
}

// Derive a pretenuring policy from a heap profile (the §6 pipeline).
func ExamplePolicyFromProfile() {
	profiled := gcsim.NewRuntime(gcsim.Config{
		Profile:      true,
		NurseryWords: 2048,
	})
	if _, err := profiled.RunBenchmark("Nqueen", gcsim.Scale{Repeat: 0.004}); err != nil {
		panic(err)
	}
	policy := gcsim.PolicyFromProfile(profiled.Profiler(), gcsim.PaperCutoffPct, 32)
	fmt.Println("pretenured sites:", policy.Len())
	// Output:
	// pretenured sites: 2
}

// Frames can declare polymorphic slots whose pointer-ness the collector
// resolves from a runtime type value (TIL's COMPUTE traces).
func ExampleCOMPSLOT() {
	rt := gcsim.NewRuntime(gcsim.Config{NurseryWords: 512})
	m := rt.Mutator()
	poly := m.Frame("poly",
		gcsim.NP(),        // slot 1: the runtime type value
		gcsim.COMPSLOT(1), // slot 2: traced only when slot 1 says pointer
	)
	m.Call(poly, func() {
		m.SetSlot(1, 1) // TypePointer
		m.AllocRecord(9, 1, 0, 2)
		m.InitIntField(2, 0, 42)
		for i := 0; i < 400; i++ {
			m.AllocRecord(8, 2, 0, 1) // garbage forcing collections
			m.SetSlot(1, 1)           // slot 1 is scratch here; keep the type
		}
		fmt.Println("payload survived:", m.LoadFieldInt(2, 0))
	})
	// Output:
	// payload survived: 42
}
