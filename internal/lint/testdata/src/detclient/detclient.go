// Package detclient is a gclint fixture for detflow: it sits outside the
// determinism fence and launders host-derived and map-order values toward
// the fixture trace package (whose import path ends in internal/trace,
// placing it inside the fence) through locals, helpers, struct fields,
// and composite literals.
package detclient

import (
	"flag"
	"runtime"
	"slices"
	"time"

	"tilgc/internal/lint/testdata/src/internal/trace"
)

// hostStamp launders a wall-clock read through a helper return value.
func hostStamp() uint64 { return uint64(time.Now().UnixNano()) }

// Direct passes a host-clock read straight across the fence.
func Direct() {
	trace.Emit(uint64(time.Now().UnixNano())) // want: argument to trace.Emit
}

// Arithmetic launders the clock through locals and arithmetic.
func Arithmetic() {
	t := time.Now().UnixNano()
	u := uint64(t)*2 + 1
	trace.Emit(u) // want: argument to trace.Emit
}

// ViaHelper launders the clock through hostStamp's summary.
func ViaHelper() {
	trace.Emit(hostStamp()) // want: argument to trace.Emit
}

// carrier is a non-fence struct used to launder taint through a field.
type carrier struct{ at uint64 }

// StoreAndForward parks a host-derived value in a struct field.
func StoreAndForward(c *carrier) {
	c.at = hostStamp()
}

// Replay reads the parked value back out in a different function and
// crosses the fence with it.
func Replay(c *carrier) {
	trace.Emit(c.at) // want: argument to trace.Emit
}

// relay is a non-fence helper whose parameter reaches a fence sink, so
// calling it with tainted data is itself a fence crossing.
func relay(v uint64) { trace.Emit(v) }

// Laundered crosses the fence through relay's summary.
func Laundered() {
	relay(hostStamp()) // want: argument to detclient.relay
}

// emitters is a table of funcs; its "relay" entry reaches the fence.
var emitters = map[string]func(uint64){"relay": relay, "drop": func(uint64) {}}

// dispatch calls an emitter through the table's function values.
func dispatch(name string, v uint64) { emitters[name](v) }

// ViaTable crosses the fence through dispatch, whose call through a
// function value may call relay.
func ViaTable() {
	dispatch("relay", hostStamp()) // want: argument to detclient.dispatch
}

// stampers is a table of clocks.
var stampers = []func() uint64{hostStamp}

// ViaStamper crosses the fence with hostStamp's taint, returned through a
// function value.
func ViaStamper() {
	trace.Emit(stampers[0]()) // want: argument to trace.Emit
}

// FlagDefault binds a flag with a host-derived default, which flag.IntVar
// stores through the pointer it is handed.
func FlagDefault(fs *flag.FlagSet) {
	var workers int
	fs.IntVar(&workers, "workers", runtime.NumCPU(), "worker-pool size")
	trace.Emit(uint64(workers)) // want: argument to trace.Emit
}

// Build taints a fence-package composite literal and then hands it over.
func Build() {
	e := trace.Event{
		At: hostStamp(), // want: in a composite literal of a deterministic-package type
	}
	trace.Record(e) // want: argument to trace.Record
}

// Stamp writes a host-derived value into a fence-declared field.
func Stamp(e *trace.Event) {
	e.At = hostStamp() // want: stored into field At
}

// UnsortedKeys sends map-order-dependent data across the fence (and the
// unsorted append is maporder's finding on its own line).
func UnsortedKeys(m map[uint64]uint64) {
	var keys []uint64
	for k := range m {
		keys = append(keys, k) // want: append to keys
	}
	trace.Emit(keys[0]) // want: map iteration order
}

// SortedKeys launders map order through a sort: clean for both analyzers.
func SortedKeys(m map[uint64]uint64) {
	var keys []uint64
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	trace.Emit(keys[0])
}

// Allowed carries a justified suppression: no surviving diagnostic.
func Allowed() {
	//lint:ignore detflow fixture exercising justified suppression
	trace.Emit(uint64(time.Now().UnixNano()))
}

// Clean passes pure cycle arithmetic across the fence: no taint.
func Clean(cycles uint64) {
	trace.Emit(cycles * 3)
}
