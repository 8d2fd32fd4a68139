package jsonl

import (
	"errors"
	"strings"
	"testing"
)

// toy is a minimal schema: header {"t":"h","schema":1,"n":N}, parents
// {"t":"p","run":..,"k":K} declaring K children, children
// {"t":"c"|"end"|"opt","run":..}; every parent needs one "end" and may
// carry one "opt".
var toy = Format{Pkg: "toy", Version: 1, Header: "h", Parent: "p", Index: "run",
	Required: []string{"end"}, Once: []string{"opt"}}

type toyHeader struct {
	T         string
	Schema, N int
}

func (r *toyHeader) Fields(c *Codec) {
	c.Str("t", &r.T)
	c.Int("schema", &r.Schema)
	c.Int("n", &r.N)
}

type toyRecord struct {
	T      string
	Run, K int
}

func (r *toyRecord) Fields(c *Codec) {
	c.Str("t", &r.T)
	c.Int("run", &r.Run)
	c.Int("k", &r.K)
}

type toyHandler struct {
	header   toyHeader
	rec      toyRecord
	children int
}

func (h *toyHandler) Record(t string) Fields {
	switch t {
	case "h":
		return &h.header
	case "p", "c", "end", "opt":
		return &h.rec
	}
	return nil
}

func (h *toyHandler) Header(rec Fields) (int, int, error) {
	return h.header.Schema, h.header.N, nil
}

func (h *toyHandler) Parent(rec Fields) (int, error) { return h.rec.K, nil }

func (h *toyHandler) Child(rec Fields) error {
	h.children++
	return nil
}

func TestReadContract(t *testing.T) {
	const ok = `{"t":"h","schema":1,"n":2}

{"t":"p","run":0,"k":2}
{"t":"c","run":0}
{"t":"end","run":0}
{"t":"p","run":1,"k":3}
{"t":"opt","run":1}
{"t":"end","run":1}
{"t":"c","run":1}
`
	var h toyHandler
	if err := toy.Read(strings.NewReader(ok), &h); err != nil {
		t.Fatal(err)
	}
	if h.children != 5 {
		t.Fatalf("handler saw %d children, want 5", h.children)
	}
	for name, c := range map[string]struct{ in, err string }{
		"schema":         {`{"t":"h","schema":2,"n":0}`, "toy: line 1: schema 2, this build reads schema 1"},
		"duplicate":      {"{\"t\":\"h\",\"schema\":1,\"n\":0}\n{\"t\":\"h\",\"schema\":1,\"n\":0}", "toy: line 2: duplicate header"},
		"trailing data":  {`{"t":"h","schema":1,"n":0} {}`, "toy: line 1: h record: data after the record"},
		"unknown field":  {`{"t":"h","schema":1,"n":0,"x":1}`, `toy: line 1: h record: unknown field "x"`},
		"empty":          {"\n\n", "toy: empty input (no header record)"},
		"parent count":   {ok[:strings.Index(ok, `{"t":"p","run":1`)], "toy: end of input: header declares 2 p records, read 1"},
		"child count":    {strings.Replace(ok, `"k":3`, `"k":4`, 1), "toy: end of input: p 1 declares 4 child records, read 3"},
		"missing end":    {strings.Replace(strings.Replace(ok, "{\"t\":\"end\",\"run\":0}\n", "", 1), `"k":2`, `"k":1`, 1), "toy: line 5: p 0 has no end record"},
		"duplicate once": {ok + "{\"t\":\"opt\",\"run\":1}\n", "toy: line 10: duplicate opt record in p 1"},
		"foreign child":  {ok + "{\"t\":\"c\",\"run\":0}\n", `toy: line 10: "c" record for p 0 inside p 1`},
		"orphan child":   {"{\"t\":\"h\",\"schema\":1,\"n\":0}\n{\"t\":\"c\",\"run\":0}", `"c" record before any p record`},
		"parent order":   {"{\"t\":\"h\",\"schema\":1,\"n\":1}\n{\"t\":\"p\",\"run\":1,\"k\":0}", "p 1 out of order (expected 0)"},
		"before header":  {`{"t":"p","run":0,"k":0}`, `toy: line 1: "p" record before header`},
		"unknown type":   {`{"t":"q","run":0}`, `toy: line 1: unknown record type "q"`},
		"bad value":      {`{"t":"h","schema":"1","n":0}`, `toy: line 1: h record: field "schema": want an integer`},
		// Tightenings over encoding/json, which accepted each of these.
		"duplicate key": {`{"t":"h","schema":1,"n":0,"n":1}`, `toy: line 1: h record: duplicate field "n"`},
		"duplicate tag": {`{"t":"h","t":"h","schema":1,"n":0}`, `toy: line 1: h record: duplicate field "t"`},
		"folded key":    {`{"t":"h","SCHEMA":1,"n":0}`, `toy: line 1: h record: unknown field "SCHEMA"`},
		"folded tag":    {`{"T":"h","schema":1,"n":0}`, `toy: line 1: first field is "T", not "t"`},
		"tag not first": {`{"schema":1,"t":"h","n":0}`, `toy: line 1: first field is "schema", not "t"`},
		"escaped key":   {`{"t":"h","sch\u0065ma":1,"n":0}`, `toy: line 1: h record: escaped key`},
		"null integer":  {`{"t":"h","schema":1,"n":null}`, `toy: line 1: h record: field "n": want an integer`},
	} {
		err := toy.Read(strings.NewReader(c.in), &toyHandler{})
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.err)
		}
	}
}

// failWriter accepts nothing: every write fails.
type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// TestWriterStickyError: the first write error is kept and returned by
// Flush, and nothing after it reaches the underlying writer.
func TestWriterStickyError(t *testing.T) {
	fw := &failWriter{}
	w := NewWriter(fw)
	rec := &toyRecord{T: "c"}
	w.Write(rec)
	if err := w.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Flush = %v, want the write error", err)
	}
	for range flushAt {
		w.Write(rec)
	}
	if err := w.Flush(); err == nil || fw.writes != 1 {
		t.Fatalf("after the error: Flush = %v and %d writes, want the error and 1 write", err, fw.writes)
	}
}
