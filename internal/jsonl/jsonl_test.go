package jsonl

import (
	"bytes"
	"strings"
	"testing"
)

// toy is a minimal schema: header {"t":"h","schema":1,"n":N}, parents
// {"t":"p","i":..,"k":K} declaring K children, children
// {"t":"c"|"end"|"opt","i":..}; every parent needs one "end" and may
// carry one "opt".
var toy = Format{Pkg: "toy", Version: 1, Header: "h", Parent: "p", Index: "run",
	Required: []string{"end"}, Once: []string{"opt"}}

type toyHandler struct{ children int }

func (h *toyHandler) Header(rec Record) (int, int, error) {
	var v struct {
		T      string `json:"t"`
		Schema int    `json:"schema"`
		N      int    `json:"n"`
	}
	err := rec.Decode(&v)
	return v.Schema, v.N, err
}

func (h *toyHandler) Parent(rec Record) (int, error) {
	var v struct {
		T   string `json:"t"`
		Run int    `json:"run"`
		K   int    `json:"k"`
	}
	err := rec.Decode(&v)
	return v.K, err
}

func (h *toyHandler) Child(rec Record) error {
	var v struct {
		T   string `json:"t"`
		Run int    `json:"run"`
	}
	h.children++
	return rec.Decode(&v)
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
		"trailing data":  {`{"t":"h","schema":1,"n":0} {}`, "toy: line 1: "},
		"unknown field":  {`{"t":"h","schema":1,"n":0,"x":1}`, "toy: line 1: "},
		"empty":          {"\n\n", "toy: empty input (no header record)"},
		"parent count":   {ok[:strings.Index(ok, `{"t":"p","run":1`)], "toy: end of input: header declares 2 p records, read 1"},
		"child count":    {strings.Replace(ok, `"k":3`, `"k":4`, 1), "toy: end of input: p 1 declares 4 child records, read 3"},
		"missing end":    {strings.Replace(strings.Replace(ok, "{\"t\":\"end\",\"run\":0}\n", "", 1), `"k":2`, `"k":1`, 1), "toy: line 5: p 0 has no end record"},
		"duplicate once": {ok + "{\"t\":\"opt\",\"run\":1}\n", "toy: line 10: duplicate opt record in p 1"},
		"foreign child":  {ok + "{\"t\":\"c\",\"run\":0}\n", `toy: line 10: "c" record for p 0 inside p 1`},
		"orphan child":   {"{\"t\":\"h\",\"schema\":1,\"n\":0}\n{\"t\":\"c\",\"run\":0}", `"c" record before any p record`},
		"parent order":   {"{\"t\":\"h\",\"schema\":1,\"n\":1}\n{\"t\":\"p\",\"run\":1,\"k\":0}", "p 1 out of order (expected 0)"},
		"before header":  {`{"t":"p","run":0,"k":0}`, `toy: line 1: "p" record before header`},
	} {
		err := toy.Read(strings.NewReader(c.in), &toyHandler{})
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.err)
		}
	}
}

// TestWriterStickyError: the first encode error is kept and returned by
// Flush, and nothing after it is written.
func TestWriterStickyError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(map[string]int{"a": 1})
	w.Write(func() {}) // unencodable
	w.Write(map[string]int{"b": 2})
	if err := w.Flush(); err == nil {
		t.Fatal("Flush lost the encode error")
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %q after an error", buf.String())
	}
}
