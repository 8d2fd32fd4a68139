package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event sink: the "JSON Array Format" understood by Perfetto
// and chrome://tracing. Each traced run becomes one thread (tid = run
// index) in a single process; collections and phases are B/E duration
// events. Timestamps are simulated cycles written into the "ts"
// microsecond field verbatim — the UI's time unit label is wrong but every
// duration ratio is exact, and the output stays byte-identical across
// runs. Counter deltas ride on the gc_end E event's args.

// ChromeEvent is one trace event. Ts (and Dur, on "X" events) carry
// simulated cycles.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeWriter emits one trace-event document: a single process (pid 0)
// whose threads are runs. The first error sticks; Close returns it.
type ChromeWriter struct {
	bw  *bufio.Writer // its write errors are sticky and surface at Flush
	n   int
	err error
}

// NewChromeWriter opens a document on w for the process named process.
func NewChromeWriter(w io.Writer, process string) *ChromeWriter {
	cw := &ChromeWriter{bw: bufio.NewWriter(w)}
	cw.bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	cw.Emit(ChromeEvent{Name: "process_name", Ph: "M", Args: map[string]any{"name": process}})
	return cw
}

// Thread names thread tid after its run label, or "run <tid>" if unlabeled.
func (cw *ChromeWriter) Thread(tid int, label string) {
	if label == "" {
		label = fmt.Sprintf("run %d", tid)
	}
	cw.Emit(ChromeEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: map[string]any{"name": label}})
}

// Emit appends one event.
func (cw *ChromeWriter) Emit(e ChromeEvent) {
	if cw.err != nil {
		return
	}
	if cw.n > 0 {
		cw.bw.WriteString(",\n")
	}
	cw.n++
	b, err := json.Marshal(e)
	if err != nil {
		cw.err = err
		return
	}
	cw.bw.Write(b)
}

// Close ends the document and flushes it; it does not close w.
func (cw *ChromeWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	cw.bw.WriteString("\n]}\n")
	return cw.bw.Flush()
}

// WriteChrome writes the file as Chrome trace-event JSON.
func (f *File) WriteChrome(w io.Writer) error {
	cw := NewChromeWriter(w, "gcsim")
	for tid, d := range f.Runs {
		cw.Thread(tid, d.Label)
		openMajor := false
		for _, e := range d.Events {
			ce := ChromeEvent{Tid: tid, Ts: uint64(e.At())}
			switch e.Kind {
			case EvGCBegin:
				openMajor = e.Major
				ce.Ph = "B"
				ce.Name = gcSpanName(e.Major, e.Seq)
				ce.Args = map[string]any{"seq": e.Seq}
			case EvGCEnd:
				ce.Ph = "E"
				ce.Name = gcSpanName(openMajor, e.Seq)
				ce.Args = counterArgs(e.Counters)
			case EvPhaseBegin:
				ce.Ph = "B"
				ce.Name = e.Phase.String()
			case EvPhaseEnd:
				ce.Ph = "E"
				ce.Name = e.Phase.String()
			}
			cw.Emit(ce)
		}
		// Footprint timeline: one counter ("C") track per space, two
		// series each (live, committed), sampled at every gc_end. Perfetto
		// renders these as stacked area charts under the run's thread.
		for _, h := range d.Heap {
			for _, sp := range h.Spaces {
				cw.Emit(ChromeEvent{Name: "heap." + sp.Name, Ph: "C", Tid: tid, Ts: uint64(h.Break.Total()),
					Args: map[string]any{"live": sp.Live, "committed": sp.Committed}})
			}
		}
		// Request spans as complete ("X") events: ts/dur carry the span,
		// args carry the GC share so slow requests can be attributed to
		// the pauses that landed inside them without cross-referencing.
		for _, q := range d.Reqs {
			cw.Emit(ChromeEvent{Name: fmt.Sprintf("req %d", q.ID), Ph: "X", Tid: tid,
				Ts: uint64(q.Begin.Total()), Dur: uint64(q.Latency()),
				Args: map[string]any{"gc_cycles": uint64(q.GCCycles())}})
		}
	}
	return cw.Close()
}

func gcSpanName(major bool, seq uint64) string {
	if major {
		return fmt.Sprintf("GC %d (major)", seq)
	}
	return fmt.Sprintf("GC %d", seq)
}

// counterArgs flattens GC counters into trace-event args. Keys are listed
// explicitly (not ranged from a map) so output order is fixed; json.Marshal
// then sorts map keys, which is itself deterministic, but the explicit
// construction keeps the set documented in one place.
func counterArgs(c *GCCounters) map[string]any {
	if c == nil {
		return nil
	}
	args := map[string]any{
		"majors":         c.Majors,
		"frames_decoded": c.FramesDecoded,
		"frames_reused":  c.FramesReused,
		"markers_placed": c.MarkersPlaced,
		"roots_found":    c.RootsFound,
		"bytes_copied":   c.BytesCopied,
		"bytes_scanned":  c.BytesScanned,
		"objects_copied": c.ObjectsCopied,
		"ssb_processed":  c.SSBProcessed,
		"los_swept":      c.LOSSwept,
		"pretenured":     c.Pretenured,
	}
	// Non-moving old-generation counters appear only when set, mirroring
	// the JSONL omitempty treatment: copying-collector traces keep their
	// pre-oldgen bytes.
	if c.ObjectsMarked != 0 {
		args["objects_marked"] = c.ObjectsMarked
	}
	if c.WordsMarked != 0 {
		args["words_marked"] = c.WordsMarked
	}
	if c.WordsSwept != 0 {
		args["words_swept"] = c.WordsSwept
	}
	if c.WordsSlid != 0 {
		args["words_slid"] = c.WordsSlid
	}
	return args
}
