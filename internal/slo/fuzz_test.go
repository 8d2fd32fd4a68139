package slo

import (
	"bytes"
	"testing"
)

// FuzzReadSLO: the reader never panics, and a report it accepts writes,
// reads back and rewrites to the same bytes. Seeds live in
// testdata/fuzz/FuzzReadSLO (the harness golden report); plain `go test`
// replays only those.
func FuzzReadSLO(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		rep, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		_ = rep.Validate() // must not panic either
		var a, b bytes.Buffer
		if err := rep.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("written report rejected: %v\n%s", err, a.Bytes())
		}
		if err := back.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("write -> read -> write not byte-identical:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
		}
	})
}
