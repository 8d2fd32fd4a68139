// Package jsonloracle checks a schema over internal/jsonl against
// encoding/json, the reference decoder the codec replaced. Tests import
// it; the codec packages themselves must not.
//
// The oracle reads a stream as the codec's predecessor did: each line is
// probed for its type tag, then decoded with DisallowUnknownFields into
// the record type the schema's handler names for that tag. The records
// it decodes are re-encoded by encoding/json's Encoder and fed through
// the schema's own structural checks, so the two readers differ only in
// how they turn a line into a record.
package jsonloracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"tilgc/internal/jsonl"
)

// Schema is one JSONL format under test, with F its in-memory form.
type Schema[F any] struct {
	Format  jsonl.Format
	Handler func() jsonl.Handler // a fresh handler for Format.Read
	Read    func(io.Reader) (F, error)
	Write   func(F, io.Writer) error
}

// Check runs the differential contract on one input:
//
//   - if the codec accepts it, so does the oracle, every record decodes
//     to the same values, and both parsed forms write the same bytes;
//   - if the oracle rejects it, so does the codec;
//   - if the codec rejects an input the oracle accepts, the line it
//     stopped at hits one of the tightenings the jsonl package documents
//     (see Tightened);
//   - whatever the codec writes is what encoding/json's Encoder writes
//     for the same records, and it reads back and rewrites unchanged.
func (s Schema[F]) Check(t testing.TB, in []byte) {
	t.Helper()
	rec := &recorder{h: s.Handler()}
	err := s.Format.Read(bytes.NewReader(in), rec)
	got, gotErr := s.Read(bytes.NewReader(in))
	if (err == nil) != (gotErr == nil) {
		t.Fatalf("Read and Format.Read disagree: %v vs %v", gotErr, err)
	}
	want, wantRecs, oerr := s.oracle(in)
	switch {
	case err == nil && oerr != nil:
		t.Fatalf("codec accepts what encoding/json rejects (%v):\n%s", oerr, in)
	case err == nil:
		if !reflect.DeepEqual(rec.recs, wantRecs) {
			t.Fatalf("codec and encoding/json decode different records:\n%s", diff(rec.recs, wantRecs))
		}
		a, b := s.write(t, got), s.write(t, want)
		if !bytes.Equal(a, b) {
			t.Fatalf("codec's and encoding/json's readings write differently:\n%s\nvs\n%s", a, b)
		}
		s.checkWritten(t, a)
	case oerr == nil:
		line, tag := nonBlankLine(in, len(rec.recs))
		if why := Tightened(line, s.newRecord(tag)); why == "" {
			t.Fatalf("codec rejects a line encoding/json accepts, and no documented tightening covers it (%v):\n%s", err, line)
		}
	}
}

// checkWritten checks a written stream: encoding/json re-encodes each of
// its records to the same bytes, and it reads back and rewrites unchanged.
func (s Schema[F]) checkWritten(t testing.TB, a []byte) {
	t.Helper()
	_, canon, err := s.decodeAll(a)
	if err != nil {
		t.Fatalf("encoding/json rejects the written stream: %v\n%s", err, a)
	}
	if !bytes.Equal(canon, a) {
		t.Fatalf("written bytes differ from encoding/json's:\n%s\nvs\n%s", a, canon)
	}
	back, err := s.Read(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("written stream rejected: %v\n%s", err, a)
	}
	if b := s.write(t, back); !bytes.Equal(a, b) {
		t.Fatalf("write -> read -> write not byte-identical:\n%s\nvs\n%s", a, b)
	}
}

func (s Schema[F]) write(t testing.TB, v F) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Write(v, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracle reads in the way the codec's predecessor did. It returns the
// parsed form and every record encoding/json decoded, in stream order.
// Only the structural checks run on the codec, over the records
// re-encoded by encoding/json.
func (s Schema[F]) oracle(in []byte) (F, []any, error) {
	var zero F
	recs, canon, err := s.decodeAll(in)
	if err != nil {
		return zero, nil, err
	}
	v, err := s.Read(bytes.NewReader(canon))
	return v, recs, err
}

// decodeAll decodes every non-blank line of in with encoding/json and
// returns the records and their re-encoding by json.Encoder.
func (s Schema[F]) decodeAll(in []byte) ([]any, []byte, error) {
	var recs []any
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for i, line := range bytes.Split(in, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		rec, err := s.decodeLine(line)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if err := enc.Encode(rec); err != nil {
			return nil, nil, err
		}
		recs = append(recs, rec)
	}
	return recs, out.Bytes(), nil
}

// decodeLine is the predecessor's line decoder: a lenient probe that
// rejects trailing data, then a strict decode.
func (s Schema[F]) decodeLine(line []byte) (any, error) {
	var probe struct {
		T       string `json:"t"`
		Run     int    `json:"run"`
		Profile int    `json:"profile"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, err
	}
	rec := s.newRecord(probe.T)
	if rec == nil {
		return nil, fmt.Errorf("unknown record type %q", probe.T)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// newRecord returns a fresh zero record of the type the handler decodes
// lines tagged t into, or nil for an unknown tag.
func (s Schema[F]) newRecord(t string) any {
	r := s.Handler().Record(t)
	if r == nil {
		return nil
	}
	return reflect.New(reflect.TypeOf(r).Elem()).Interface()
}

// recorder wraps a handler and keeps a copy of every record it converts.
type recorder struct {
	h    jsonl.Handler
	recs []any
}

func (r *recorder) Record(t string) jsonl.Fields { return r.h.Record(t) }

func (r *recorder) Header(rec jsonl.Fields) (int, int, error) {
	r.keep(rec)
	return r.h.Header(rec)
}

func (r *recorder) Parent(rec jsonl.Fields) (int, error) {
	r.keep(rec)
	return r.h.Parent(rec)
}

func (r *recorder) Child(rec jsonl.Fields) error {
	r.keep(rec)
	return r.h.Child(rec)
}

func (r *recorder) keep(rec jsonl.Fields) {
	v := reflect.New(reflect.TypeOf(rec).Elem())
	v.Elem().Set(reflect.ValueOf(rec).Elem())
	r.recs = append(r.recs, v.Interface())
}

// nonBlankLine returns the n-th (from 0) non-blank line of in, trimmed,
// and its type tag as encoding/json reads it.
func nonBlankLine(in []byte, n int) ([]byte, string) {
	for _, line := range bytes.Split(in, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if n == 0 {
			var probe struct {
				T string `json:"t"`
			}
			_ = json.Unmarshal(line, &probe) // the oracle accepted the line
			return line, probe.T
		}
		n--
	}
	return nil, ""
}

func diff(got, want []any) string {
	for i := range min(len(got), len(want)) {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("record %d: %+v\nvs %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d records vs %d", len(got), len(want))
}

// Tightened names the tightening over encoding/json that rejects line, a
// line encoding/json decodes into rec; it returns "" when there is none.
// The tightenings are those the jsonl package documents: the type tag
// not first, an escaped key, a key repeated or matching a field only
// when case is ignored, and null for anything but an array field.
func Tightened(line []byte, rec any) string {
	if rec == nil {
		return ""
	}
	w := walker{line: line, dec: json.NewDecoder(bytes.NewReader(line))}
	if _, err := w.dec.Token(); err != nil { // '{'
		return ""
	}
	return w.object(reflect.TypeOf(rec).Elem(), true)
}

type walker struct {
	line []byte
	dec  *json.Decoder
}

// object walks the keys and values of the object whose '{' was just read.
func (w *walker) object(t reflect.Type, top bool) string {
	fields := jsonFields(t)
	var seen []string
	for first := true; w.dec.More(); first = false {
		start := w.dec.InputOffset()
		tok, err := w.dec.Token()
		if err != nil {
			return ""
		}
		key, _ := tok.(string)
		raw := bytes.TrimLeft(w.line[start:w.dec.InputOffset()], " \t\r\n,")
		if top && first && string(raw) != `"t"` {
			return "type tag not first"
		}
		if bytes.IndexByte(raw, '\\') >= 0 {
			return "escaped key"
		}
		for _, k := range seen {
			if strings.EqualFold(k, key) {
				return "duplicate key"
			}
		}
		seen = append(seen, key)
		ft, ok := fields[key]
		if !ok {
			return "key matches a field only when case is ignored"
		}
		if why := w.value(ft); why != "" {
			return why
		}
	}
	_, _ = w.dec.Token() // '}'
	return ""
}

func (w *walker) value(t reflect.Type) string {
	tok, err := w.dec.Token()
	if err != nil {
		return ""
	}
	switch tok {
	case nil:
		if t.Kind() != reflect.Slice {
			return "null for a field that is not an array"
		}
	case json.Delim('{'):
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		return w.object(t, false)
	case json.Delim('['):
		for w.dec.More() {
			if why := w.value(t.Elem()); why != "" {
				return why
			}
		}
		_, _ = w.dec.Token() // ']'
	}
	return ""
}

// jsonFields maps the keys encoding/json decodes into struct type t,
// embedded structs flattened, to their field types.
func jsonFields(t reflect.Type) map[string]reflect.Type {
	m := map[string]reflect.Type{}
	for i := range t.NumField() {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct {
			for k, v := range jsonFields(f.Type) {
				m[k] = v
			}
			continue
		}
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		m[name] = f.Type
	}
	return m
}
