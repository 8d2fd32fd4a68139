package trace

import (
	"bytes"
	"testing"
)

// FuzzReadTrace: the reader never panics, and a trace it accepts writes,
// reads back and rewrites to the same bytes. Seeds live in
// testdata/fuzz/FuzzReadTrace (the harness golden trace and one run with
// every record kind); plain `go test` replays only those.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		tf, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		_ = tf.Validate() // must not panic either
		var a, b bytes.Buffer
		if err := tf.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("written trace rejected: %v\n%s", err, a.Bytes())
		}
		if err := back.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("write -> read -> write not byte-identical:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
		}
	})
}
