package core

import "tilgc/internal/mem"

// refKernels selects the reference (pre-optimization) implementations of
// the collector hot paths: the first-draft copy/scan kernels, per-GC
// evacuator allocation, the cloning store-buffer drain, and eager arena
// zeroing. The stack scan is outside the seam: both modes decode frames
// through the one compiled-layout path, with the pass-1 key buffer and
// the root slices pooled. The reference and optimized paths are
// observationally identical — same simulated cycles, traces, stats, and
// heap images. The flag exists so tests can prove that:
// TestKernelEquivalence (heap images, stats and cycles across the kernel
// mini-sweep), TestReferenceKernelsObservationallyIdentical (end to end
// through the harness), and the fuzz fleet's reference-kernel oracle
// (fuzz.CheckRefKernels) all run the same program under both modes and
// compare.
//
// The flag is process-global and read on collector hot paths without
// synchronization: set it only while no collector is running (tests
// toggle it between serial runs).
var refKernels bool

// SetReferenceKernels switches every subsequently-running collector
// between the optimized (false, default) and reference (true) hot-path
// implementations. See refKernels for the contract.
func SetReferenceKernels(on bool) {
	refKernels = on
	mem.SetEagerZeroing(on)
}
