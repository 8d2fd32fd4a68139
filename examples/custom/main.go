// Custom shows how to write your own program against the simulated
// runtime, exercising machinery the benchmark suite abstracts away:
//
//   - COMPUTE traces: a polymorphic stack slot whose pointer-ness the
//     collector derives from a runtime type value in another slot, as
//     TIL's intensional polymorphism requires (§2.3, Figure 1);
//   - per-variant record pointer masks (boxed vs unboxed payloads);
//   - exceptions unwinding a deep stack past stack-marker frames (§5).
//
// Run with:
//
//	go run ./examples/custom
package main

import (
	"fmt"

	"tilgc/gcsim"
)

const (
	siteCell    gcsim.SiteID = 10
	sitePayload gcsim.SiteID = 11
	siteGarbage gcsim.SiteID = 12
	siteList    gcsim.SiteID = 13
)

const cells = 5000

func main() {
	rt := gcsim.NewRuntime(gcsim.Config{
		Collector:    gcsim.GenerationalMarkers,
		NurseryWords: 2048, // 16KB: tiny, so this demo collects constantly
	})
	m := rt.Mutator()

	mainF := m.PtrFrame("main", 3)
	// The polymorphic frame: slot 1 holds a runtime type, slot 2 holds a
	// value that is a pointer exactly when slot 1 says so, slot 3 is an
	// ordinary pointer slot.
	poly := m.Frame("poly",
		gcsim.NP(),        // 1: runtime type (0 = unboxed, 1 = boxed)
		gcsim.COMPSLOT(1), // 2: the polymorphic payload
		gcsim.PTR(),       // 3: result cell
	)
	deep := m.PtrFrame("deep", 1)

	m.Call(mainF, func() {
		// Phase 1: build a mixed list of boxed and unboxed cells. Each
		// iteration parks the payload in the COMPUTE-traced slot and then
		// allocates garbage, forcing collections that must classify the
		// slot correctly from the runtime type.
		m.SetSlotNil(1)
		for i := uint64(0); i < cells; i++ {
			boxed := i%3 == 0
			m.CallArgs(poly, nil, func() {
				if boxed {
					m.SetSlot(1, 1) // TypePointer
					m.AllocRecord(sitePayload, 1, 0, 3)
					m.InitIntField(3, 0, i)
					m.SetSlot(2, m.Slot(3))
				} else {
					m.SetSlot(1, 0) // TypeNonPointer
					m.SetSlot(2, i*2+1)
				}
				for j := 0; j < 8; j++ {
					m.AllocRecord(siteGarbage, 3, 0, 3)
				}
				// The cell: [isBoxed, payload, spare]; the payload field
				// is in the pointer mask only for the boxed variant.
				mask := uint64(0b000)
				if boxed {
					mask = 0b010
				}
				m.AllocRecord(siteCell, 3, mask, 3)
				m.InitIntField(3, 0, map[bool]uint64{false: 0, true: 1}[boxed])
				if boxed {
					m.InitPtrField(3, 1, 2)
				} else {
					m.InitIntField(3, 1, m.Slot(2))
				}
				m.RetPtr(3)
			})
			m.TakeRet(2)
			m.ConsPtr(siteList, 2, 1, 1)
		}

		// Verify the list survived the collection storm intact.
		m.SetSlot(2, m.Slot(1))
		var i uint64 = cells
		for !m.IsNil(2) {
			i--
			m.Head(2, 3)
			if m.LoadFieldInt(3, 0) == 1 { // boxed
				if i%3 != 0 {
					panic("variant tag corrupted")
				}
				m.LoadField(3, 1, 3)
				if m.LoadFieldInt(3, 0) != i {
					panic(fmt.Sprintf("boxed payload %d corrupted", i))
				}
			} else if m.LoadFieldInt(3, 1) != i*2+1 {
				panic(fmt.Sprintf("unboxed payload %d corrupted", i))
			}
			m.Tail(2, 2)
		}
		fmt.Printf("verified %d polymorphic cells across %d collections\n",
			cells, rt.Stats().NumGC)

		// Phase 2: raise an exception from 800 frames deep. The unwind
		// jumps past every stack marker placed during phase-1 scans; the
		// §5 watermark keeps the next collection sound.
		caught := false
		m.TryCatch(func() {
			var descend func(d int)
			descend = func(d int) {
				m.Call(deep, func() {
					m.AllocRecord(siteGarbage, 2, 0, 1)
					if d < 800 {
						descend(d + 1)
						return
					}
					// Raise returns; every body on the way back to the
					// TryCatch returns at once, as descend's callers do.
					m.Raise()
				})
			}
			descend(0)
		}, func() {
			caught = true
		})
		if !caught {
			panic("exception lost")
		}
		// Collections after the unwind must still be correct.
		rt.Collect(false)
		m.SetSlot(2, m.Slot(1))
		n := m.ListLen(1, 2)
		fmt.Printf("list intact after deep unwind: %d cells\n", n)
	})

	s := rt.Stats()
	fmt.Printf("frames decoded %d, reused via markers %d, markers placed %d\n",
		s.FramesDecoded, s.FramesReused, s.MarkersPlaced)
}
