package gcsim

import (
	"errors"
	"fmt"
	"strings"
)

// Validate checks the configuration for option combinations the selected
// collector would silently ignore. Historically NewRuntime dropped such
// options on the floor — a Config{Collector: Semispace, CardTable: true}
// ran the plain semispace collector and the caller's barrier "ablation"
// measured nothing. Every mismatch is now an error naming the field;
// NewRuntime panics on an invalid configuration rather than running a
// quietly different experiment. Validate checks the collector presets
// here and joins every problem of the runtime they translate to
// (harness.Spec.Validate, which owns the per-collector knob rules).
func (c Config) Validate() error {
	if c.Collector < Generational || c.Collector > GenerationalFull {
		return fmt.Errorf("unknown Collector %d", c.Collector)
	}
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	// MarkerN selects the §5 stack-marker spacing. Plain Generational
	// deliberately runs without markers (it is the paper's "before"
	// configuration), so a spacing there would be ignored. The rules read
	// the preset row the choice selects.
	p := c.preset()
	if c.MarkerN != 0 && !p.Markers {
		bad("MarkerN is set but Collector %v scans the full stack; use GenerationalMarkers, GenerationalFull, or Semispace", c.Collector)
	}
	if p.Policy && c.Pretenure == nil {
		bad("Collector %v requires a Pretenure policy (see PolicyFromProfile); use GenerationalMarkers for markers without pretenuring", c.Collector)
	}
	if !p.Policy && c.Pretenure != nil {
		bad("Pretenure policy is set but Collector %v ignores it; use GenerationalFull", c.Collector)
	}
	if c.SiteNames != nil && !c.Profile {
		bad("SiteNames is set but Profile is off, so no report would ever use the names")
	}
	return errors.Join(append(errs, c.spec().Validate())...)
}

// String names the collector choice in error messages.
func (c CollectorChoice) String() string {
	if c < Generational || c > GenerationalFull {
		return fmt.Sprintf("CollectorChoice(%d)", int(c))
	}
	return choices[c].name
}

// mustValidate panics with every validation error on one line per
// problem, so a misconfigured experiment fails at construction with the
// full list instead of at the first field someone happens to notice.
func mustValidate(c Config) {
	if err := c.Validate(); err != nil {
		msg := strings.ReplaceAll(err.Error(), "\n", "\n  ")
		panic("gcsim: invalid Config:\n  " + msg)
	}
}
