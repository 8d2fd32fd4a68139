package gcsim_test

import (
	"strings"
	"testing"

	"tilgc/gcsim"
)

// TestConfigValidate enumerates every option/collector mismatch NewRuntime
// used to ignore silently. Each case must produce an error naming the
// offending field, and every valid case must produce none — the matrix is
// the regression suite for the "quietly ran a different experiment" class
// of bug (e.g. Semispace+CardTable measured nothing, Generational+MarkerN
// never placed a marker).
func TestConfigValidate(t *testing.T) {
	pol := gcsim.NewPretenurePolicy(map[gcsim.SiteID]gcsim.PretenureDecision{1: {}})
	cases := []struct {
		name    string
		cfg     gcsim.Config
		wantErr string // substring of the error; "" means valid
	}{
		{"default", gcsim.Config{}, ""},
		{"semispace", gcsim.Config{Collector: gcsim.Semispace}, ""},
		{"semispace markers", gcsim.Config{Collector: gcsim.Semispace, MarkerN: 3}, ""},
		{"gen nursery", gcsim.Config{NurseryWords: 1024}, ""},
		{"gen cards", gcsim.Config{CardTable: true}, ""},
		{"gen aging", gcsim.Config{AgingMinors: 2}, ""},
		{"markers", gcsim.Config{Collector: gcsim.GenerationalMarkers, MarkerN: 7}, ""},
		{"markers default spacing", gcsim.Config{Collector: gcsim.GenerationalMarkers}, ""},
		{"full", gcsim.Config{Collector: gcsim.GenerationalFull, Pretenure: pol}, ""},
		{"full elision", gcsim.Config{Collector: gcsim.GenerationalFull, Pretenure: pol, ScanElision: true}, ""},
		{"profile names", gcsim.Config{Profile: true, SiteNames: map[gcsim.SiteID]string{1: "site"}}, ""},

		{"semispace nursery", gcsim.Config{Collector: gcsim.Semispace, NurseryWords: 1024}, "NurseryWords"},
		{"semispace cards", gcsim.Config{Collector: gcsim.Semispace, CardTable: true}, "CardTable"},
		{"semispace aging", gcsim.Config{Collector: gcsim.Semispace, AgingMinors: 2}, "AgingMinors"},
		{"semispace pretenure", gcsim.Config{Collector: gcsim.Semispace, Pretenure: pol}, "Pretenure"},
		{"semispace elision", gcsim.Config{Collector: gcsim.Semispace, ScanElision: true}, "ScanElision"},
		{"semispace defer", gcsim.Config{Collector: gcsim.Semispace, DeferMajor: true}, "DeferMajor"},
		{"gen markerN", gcsim.Config{MarkerN: 25}, "MarkerN"},
		{"negative markerN", gcsim.Config{Collector: gcsim.GenerationalMarkers, MarkerN: -1}, "negative"},
		{"negative aging", gcsim.Config{AgingMinors: -2}, "negative"},
		{"gen pretenure", gcsim.Config{Pretenure: pol}, "GenerationalFull"},
		{"markers pretenure", gcsim.Config{Collector: gcsim.GenerationalMarkers, Pretenure: pol}, "GenerationalFull"},
		{"gen elision", gcsim.Config{ScanElision: true}, "ScanElision"},
		{"full no policy", gcsim.Config{Collector: gcsim.GenerationalFull}, "Pretenure policy"},
		{"names no profile", gcsim.Config{SiteNames: map[gcsim.SiteID]string{1: "site"}}, "SiteNames"},
		{"unknown collector", gcsim.Config{Collector: gcsim.CollectorChoice(99)}, "unknown Collector"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestConfigValidateJoinsAllErrors: a Config wrong in several ways reports
// every problem at once, not just the first.
func TestConfigValidateJoinsAllErrors(t *testing.T) {
	err := gcsim.Config{
		Collector:    gcsim.Semispace,
		NurseryWords: 1024,
		CardTable:    true,
		AgingMinors:  3,
	}.Validate()
	if err == nil {
		t.Fatal("Validate() = nil for a triply-invalid config")
	}
	for _, field := range []string{"NurseryWords", "CardTable", "AgingMinors"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("joined error %q does not mention %s", err, field)
		}
	}
}

// TestNewRuntimeRejectsInvalidConfig: construction must fail loudly, not
// drop the option.
func TestNewRuntimeRejectsInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewRuntime accepted Semispace+CardTable")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "CardTable") {
			t.Fatalf("panic %v does not name the offending field", r)
		}
	}()
	gcsim.NewRuntime(gcsim.Config{Collector: gcsim.Semispace, CardTable: true})
}

// TestSemispaceMarkersWired: MarkerN used to be pinned to zero for the
// semispace collector. Now it reaches the core config, so a semispace run
// with markers actually places them.
func TestSemispaceMarkersWired(t *testing.T) {
	rt := gcsim.NewRuntime(gcsim.Config{Collector: gcsim.Semispace, MarkerN: 2, BudgetWords: 1 << 20})
	m := rt.Mutator()
	f := m.PtrFrame("level", 1)
	var grow func(d int)
	grow = func(d int) {
		if d == 0 {
			rt.Collect(false)
			return
		}
		m.Call(f, func() {
			m.ConsInt(1, uint64(d), 1, 1)
			grow(d - 1)
		})
	}
	grow(30)
	rt.Collect(false)
	if rt.Stats().MarkersPlaced == 0 {
		t.Fatal("semispace run with MarkerN=2 placed no stack markers")
	}
}
