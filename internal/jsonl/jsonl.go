// Package jsonl is the strict-record codec under every JSONL format the
// simulator writes: traces (internal/trace), SLO reports (internal/slo)
// and cross-run profile stores (internal/adapt). Each format is a schema
// over it; the codec owns the line handling, the field codec and the
// structural checks they share.
//
// A stream is one JSON object per line, typed by its "t" field. The
// header comes first and exactly once, pins the schema version, and
// declares how many parent records follow. Parents carry their index
// 0..N-1 in order; every other record is a child of the parent before it
// and repeats that parent's index. The reader rejects misordered or
// orphaned records, repeated singletons, and any stream whose record
// counts disagree with what its header and parents declare, so a
// truncated file never reads back as a shorter valid one.
//
// Each record type declares its fields once, in wire order, in a Fields
// method: c.Uint("b_client", &r.BClient) appends the field when c
// encodes and matches the key when c decodes. An embedded struct is
// declared by calling its declaration in place, so its fields flatten
// into the record as encoding/json flattens them. The writer's output
// is byte for byte what encoding/json's Encoder writes for the same
// struct and tags: fields in declaration order, the Omit variants
// dropping zero values as omitempty does, strings HTML-escaped with
// U+2028 and U+2029 escaped and invalid UTF-8 written as \ufffd.
//
// The reader scans each line once. The grammar it accepts is:
//
//   - Blank lines are skipped. Other lines are trimmed of leading and
//     trailing white space (bytes.TrimSpace) and hold exactly one JSON
//     object; between tokens only space, tab, CR and LF may appear.
//   - The first key of the object is "t", and its value names a record
//     type the format declares.
//   - Every key is written without escapes, matches a declared field of
//     the object exactly (case included), and appears at most once. Keys
//     may come in any order; a declared field that is absent reads as
//     its zero value.
//   - A string field holds a JSON string, unescaped as encoding/json
//     does (invalid UTF-8 and unpaired surrogates read as U+FFFD).
//   - An unsigned field holds a decimal integer without sign, fraction
//     or exponent, in range for the field; a signed field may also carry
//     a minus sign ("-0" reads as 0). A boolean field holds true or false.
//   - An object field holds an object, read by the same rules.
//   - An array field holds an array of its element type, or null, which
//     reads as a nil slice; [] reads as an empty one. null is accepted
//     nowhere else.
//
// Against encoding/json with DisallowUnknownFields, which this reader
// replaced, that grammar is tighter in exactly these ways: a duplicate
// key is an error rather than last-wins; a key that matches a field only
// when case is ignored is unknown; null for a string, number, boolean or
// object field, or for an array element, is an error rather than a
// no-op; the type tag must come first; and escaped keys are rejected.
package jsonl

import (
	"bufio"
	"bytes"
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
	// Record returns the record a line of type t decodes into, or nil if
	// the format has no such record type. The reader sets every field, so
	// the handler may return the same record for every line of a type.
	Record(t string) Fields
	// Header converts the header record and returns its schema version
	// and the number of parent records it declares.
	Header(rec Fields) (schema, parents int, err error)
	// Parent converts the next parent record and returns the number of
	// child records it declares, or -1 when the format declares none.
	Parent(rec Fields) (children int, err error)
	// Child converts one child record of the latest parent.
	Child(rec Fields) error
}

// reader is the state of one Read.
type reader struct {
	Format
	h        Handler
	c        Codec
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
	rd := &reader{Format: f, h: h, single: single, seen: make([]bool, len(single)),
		c: Codec{index: f.Index, strs: map[string]string{}}}
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
	t, err := rd.c.typeTag(line)
	if err != nil {
		return err
	}
	rec := rd.h.Record(t)
	if rec == nil {
		return fmt.Errorf("unknown record type %q", t)
	}
	idx, err := rd.c.decode(line, rec)
	if err != nil {
		return fmt.Errorf("%s record: %w", t, err)
	}
	if t == rd.Header {
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
		return fmt.Errorf("%q record before header", t)
	}
	if t == rd.Parent {
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
		return fmt.Errorf("%q record before any %s record", t, rd.Parent)
	}
	if idx != rd.n-1 {
		return fmt.Errorf("%q record for %s %d inside %s %d", t, rd.Parent, idx, rd.Parent, rd.n-1)
	}
	if i := slices.Index(rd.single, t); i >= 0 {
		if rd.seen[i] {
			return fmt.Errorf("duplicate %s record in %s %d", t, rd.Parent, rd.n-1)
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

// flushAt is the buffered size at which a Writer passes its lines on.
const flushAt = 16 << 10

// Writer encodes records one per line. The first write error sticks:
// later records are dropped and Flush returns it.
type Writer struct {
	w   io.Writer
	c   Codec
	err error
}

// NewWriter returns a Writer buffering onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, c: Codec{buf: make([]byte, 0, 2*flushAt)}}
}

// Write encodes rec as one line.
func (w *Writer) Write(rec Fields) {
	if w.err != nil {
		return
	}
	c := &w.c
	c.buf = append(c.buf, '{')
	c.comma = false
	rec.Fields(c)
	c.buf = append(c.buf, '}', '\n')
	if len(c.buf) >= flushAt {
		w.flush()
	}
}

func (w *Writer) flush() {
	_, w.err = w.w.Write(w.c.buf)
	w.c.buf = w.c.buf[:0]
}

// Flush writes any buffered lines and returns the first error.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.c.buf) > 0 {
		w.flush()
	}
	return w.err
}
