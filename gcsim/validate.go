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
// measured nothing. Every mismatch is now an error naming the field and
// the collector choice it requires; NewRuntime panics on an invalid
// configuration rather than running a quietly different experiment.
func (c Config) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if c.Collector < Generational || c.Collector > GenerationalFull {
		bad("unknown Collector %d", c.Collector)
		return errors.Join(errs...)
	}

	if c.Collector == Semispace {
		// The semispace baseline has no nursery, no write barrier, no
		// promotion, and no pretenured region: every generational knob is
		// meaningless rather than defaulted.
		if c.NurseryWords != 0 {
			bad("NurseryWords is set but the Semispace collector has no nursery")
		}
		if c.CardTable {
			bad("CardTable is set but the Semispace collector has no write barrier")
		}
		if c.AgingMinors != 0 {
			bad("AgingMinors is set but the Semispace collector has no promotion")
		}
		if c.Pretenure != nil {
			bad("Pretenure is set but the Semispace collector has no tenured generation (use GenerationalFull)")
		}
		if c.ScanElision {
			bad("ScanElision is set but the Semispace collector has no pretenured region")
		}
		if c.OldCollector != OldCopy {
			bad("OldCollector %v is set but the Semispace collector has no old generation", c.OldCollector)
		}
		if c.DeferMajor {
			bad("DeferMajor is set but the Semispace collector has no minor collection to defer a major from")
		}
	}
	if c.OldCollector > OldMarkCompact {
		bad("unknown OldCollector %d (want OldCopy, OldMarkSweep, or OldMarkCompact)", c.OldCollector)
	}

	// MarkerN selects the §5 stack-marker spacing. Plain Generational
	// deliberately runs without markers (it is the paper's "before"
	// configuration), so a spacing there would be ignored.
	if c.MarkerN != 0 && c.Collector == Generational {
		bad("MarkerN is set but Collector Generational scans the full stack; use GenerationalMarkers, GenerationalFull, or Semispace")
	}
	if c.MarkerN < 0 {
		bad("MarkerN %d is negative", c.MarkerN)
	}
	if c.AgingMinors < 0 {
		bad("AgingMinors %d is negative", c.AgingMinors)
	}
	if c.Threads < 0 {
		bad("Threads %d is negative", c.Threads)
	}
	if c.GCWorkers < 0 {
		bad("GCWorkers %d is negative", c.GCWorkers)
	}

	switch c.Collector {
	case GenerationalFull:
		if c.Pretenure == nil {
			bad("Collector GenerationalFull requires a Pretenure policy (see PolicyFromProfile); use GenerationalMarkers for markers without pretenuring")
		}
	default:
		if c.Pretenure != nil && c.Collector != Semispace {
			bad("Pretenure policy is set but Collector %v ignores it; use GenerationalFull", c.Collector)
		}
		if c.ScanElision && c.Collector != Semispace {
			bad("ScanElision is set but Collector %v has no pretenured region to elide; use GenerationalFull", c.Collector)
		}
	}

	if c.SiteNames != nil && !c.Profile {
		bad("SiteNames is set but Profile is off, so no report would ever use the names")
	}

	return errors.Join(errs...)
}

// String names the collector choice in error messages.
func (c CollectorChoice) String() string {
	switch c {
	case Generational:
		return "Generational"
	case Semispace:
		return "Semispace"
	case GenerationalMarkers:
		return "GenerationalMarkers"
	case GenerationalFull:
		return "GenerationalFull"
	}
	return fmt.Sprintf("CollectorChoice(%d)", int(c))
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
