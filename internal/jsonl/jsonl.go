// Package jsonl is the strict-record codec under every JSONL format the
// simulator writes: traces (internal/trace), SLO reports (internal/slo)
// and cross-run profile stores (internal/adapt). Each format is a schema
// over it; the codec owns the line handling, strict decoding and
// structural checks they share.
//
// A stream is one JSON object per line, typed by its "t" field. The
// header comes first and exactly once, pins the schema version, and
// declares how many parent records follow. Parents carry their index
// 0..N-1 in order; every other record is a child of the parent before it
// and repeats that parent's index. The reader rejects unknown fields,
// trailing data, misordered or orphaned records, repeated singletons, and
// any stream whose record counts disagree with what its header and
// parents declare, so a truncated file never reads back as a shorter
// valid one.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MaxLine is the longest line the reader accepts, in bytes.
const MaxLine = 16 << 20

// Format describes one record schema.
type Format struct {
	Pkg     string // error prefix: "<Pkg>: line N: ..."
	Version int    // the one schema version this build reads
	Header  string // header record type
	Parent  string // parent record type
	Index   string // parent-index field: "run" or "profile"
	// Required lists the child record types every parent carries exactly
	// once; Once those it carries at most once.
	Required, Once []string
}

// Handler converts one format's records to its in-memory form. The
// reader calls it in stream order, after the structural checks.
type Handler interface {
	// Header decodes the header record and returns its schema version and
	// the number of parent records it declares.
	Header(rec Record) (schema, parents int, err error)
	// Parent decodes the next parent record and returns the number of
	// child records it declares, or -1 when the format declares none.
	Parent(rec Record) (children int, err error)
	// Child decodes one child record of the latest parent.
	Child(rec Record) error
}

// Record is one non-blank line and its record type.
type Record struct {
	T    string
	line []byte
}

// Decode decodes the record into v, rejecting fields v does not have.
func (r Record) Decode(v any) error {
	dec := json.NewDecoder(bytes.NewReader(r.line))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// probe is the lenient first parse of every line. Unlike Decode it
// rejects trailing data after the object.
type probe struct {
	T       string `json:"t"`
	Run     int    `json:"run"`
	Profile int    `json:"profile"`
}

// reader is the structural state of one Read.
type reader struct {
	Format
	h        Handler
	header   bool     // header read
	parents  int      // declared by the header
	n        int      // parent records read
	children int      // declared by the current parent, or -1
	nchild   int      // child records read in the current parent
	single   []string // Required then Once
	seen     []bool   // single[i] read in the current parent
}

// Read parses a stream of f's records into h.
func (f Format) Read(r io.Reader, h Handler) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	single := append(slices.Clip(f.Required), f.Once...)
	rd := &reader{Format: f, h: h, single: single, seen: make([]bool, len(single))}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := rd.line(line); err != nil {
			return fmt.Errorf("%s: line %d: %w", f.Pkg, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("longer than %d bytes: %w", MaxLine, err)
		}
		return fmt.Errorf("%s: line %d: %w", f.Pkg, lineNo+1, err)
	}
	if !rd.header {
		return fmt.Errorf("%s: empty input (no header record)", f.Pkg)
	}
	if err := rd.closeParent(); err != nil {
		return fmt.Errorf("%s: end of input: %w", f.Pkg, err)
	}
	if rd.n != rd.parents {
		return fmt.Errorf("%s: end of input: header declares %d %s records, read %d", f.Pkg, rd.parents, f.Parent, rd.n)
	}
	return nil
}

func (rd *reader) line(line []byte) error {
	var p probe
	if err := json.Unmarshal(line, &p); err != nil {
		return err
	}
	rec := Record{T: p.T, line: line}
	idx := p.Run
	if rd.Index == "profile" {
		idx = p.Profile
	}
	if p.T == rd.Header {
		if rd.header {
			return errors.New("duplicate header")
		}
		schema, parents, err := rd.h.Header(rec)
		if err != nil {
			return err
		}
		if schema != rd.Version {
			return fmt.Errorf("schema %d, this build reads schema %d", schema, rd.Version)
		}
		rd.header, rd.parents = true, parents
		return nil
	}
	if !rd.header {
		return fmt.Errorf("%q record before header", p.T)
	}
	if p.T == rd.Parent {
		if idx != rd.n {
			return fmt.Errorf("%s %d out of order (expected %d)", rd.Parent, idx, rd.n)
		}
		if err := rd.closeParent(); err != nil {
			return err
		}
		children, err := rd.h.Parent(rec)
		if err != nil {
			return err
		}
		rd.n++
		rd.children, rd.nchild = children, 0
		clear(rd.seen)
		return nil
	}
	if rd.n == 0 {
		return fmt.Errorf("%q record before any %s record", p.T, rd.Parent)
	}
	if idx != rd.n-1 {
		return fmt.Errorf("%q record for %s %d inside %s %d", p.T, rd.Parent, idx, rd.Parent, rd.n-1)
	}
	if i := slices.Index(rd.single, p.T); i >= 0 {
		if rd.seen[i] {
			return fmt.Errorf("duplicate %s record in %s %d", p.T, rd.Parent, rd.n-1)
		}
		rd.seen[i] = true
	}
	rd.nchild++
	return rd.h.Child(rec)
}

// closeParent checks that the current parent, if any, holds the child
// records it declared and every required singleton.
func (rd *reader) closeParent() error {
	if rd.n == 0 {
		return nil
	}
	if rd.children >= 0 && rd.nchild != rd.children {
		return fmt.Errorf("%s %d declares %d child records, read %d", rd.Parent, rd.n-1, rd.children, rd.nchild)
	}
	for i, t := range rd.Required {
		if !rd.seen[i] {
			return fmt.Errorf("%s %d has no %s record", rd.Parent, rd.n-1, t)
		}
	}
	return nil
}

// Writer encodes records one per line. The first error sticks: later
// writes are dropped and Flush returns it.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewWriter returns a Writer buffering onto w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write encodes rec as one line.
func (w *Writer) Write(rec any) {
	if w.err == nil {
		w.err = w.enc.Encode(rec) // Encode appends the newline JSONL needs
	}
}

// Flush writes any buffered lines and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}
