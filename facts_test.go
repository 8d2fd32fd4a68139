package tilgc_test

import (
	"testing"

	"tilgc/internal/harness"
)

// simFacts are the paper's evaluation quantities (§5–§6) for one run:
// the client checksum, the number of collections, bytes copied, and
// client and collector cycles. They are a pure function of the workload,
// the scale and the collector configuration, so they hold on any machine.
type simFacts struct {
	check, numGC, bytesCopied, clientCycles, gcCycles uint64
}

// TestWorkloadSimFacts pins the simulated facts of six paper workloads
// under the generational collector with stack markers at k=4, at
// benchScale. Any drift means the simulation's observable behaviour
// changed.
func TestWorkloadSimFacts(t *testing.T) {
	pins := []struct {
		name string
		want simFacts
	}{
		{"Checksum", simFacts{3713704074, 65, 0, 3484426, 1210428}},
		{"Knuth-Bendix", simFacts{8452625397496456861, 225, 2107936, 445692225, 5085634}},
		{"Lexgen", simFacts{248862, 11, 55952, 163268, 167834}},
		{"Life", simFacts{8238916188320887266, 44, 240800, 290017, 624380}},
		{"PIA", simFacts{1930176678176319727, 1, 1664, 413982, 30599}},
		{"Simple", simFacts{29502087249899167, 18, 615368, 2873541, 625832}},
	}
	for _, p := range pins {
		r, err := harness.Run(harness.RunConfig{
			Workload: p.name, Scale: benchScale, Kind: harness.KindGenMarkers, K: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got := simFacts{
			r.Check, r.Stats.NumGC, r.Stats.BytesCopied,
			uint64(r.Times.Client), uint64(r.Times.GC()),
		}
		if got != p.want {
			t.Errorf("%s: simulated facts %+v, want %+v", p.name, got, p.want)
		}
	}
}
