package sanitize_test

import (
	"fmt"
	"testing"

	"tilgc/internal/fuzz"
)

// TestSanitizedRandomMutator drives randomized mutator programs under an
// always-on sanitizer and the package's other oracles. The randomized
// mutator that used to live here (a hand-rolled math/rand loop) was
// extracted into internal/fuzz, whose generator is deterministic,
// seedable, and shared with the gcbench -fuzz differential fleet — so the
// sanitizer now exercises the very same op mix (deep stacks, barrier
// floods, LOS traffic, phase flips) the fuzzing fleet sweeps, and a
// failure here is a one-word reproducer (`gcbench -fuzz -fuzz-seeds N`)
// instead of an unreplayable rand stream.
//
// CheckProgram wraps every matrix collector with sanitize.Wrap (a check
// after every collection) and reports violations as FailSanitizer
// failures; the cross-config, run-twice, trace, and wrapper oracles ride
// along.
func TestSanitizedRandomMutator(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d/%s", seed, fuzz.ProfileOf(seed)), func(t *testing.T) {
			p := fuzz.Generate(seed)
			for _, f := range fuzz.CheckProgram(p, nil) {
				t.Errorf("%s", f)
			}
		})
	}
}
