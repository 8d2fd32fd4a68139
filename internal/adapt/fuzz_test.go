package adapt

import (
	"bytes"
	"testing"
)

// FuzzReadStore: the reader never panics, and a store it accepts writes,
// reads back and rewrites to the same bytes. Seeds live in
// testdata/fuzz/FuzzReadStore (a small written store); plain `go test`
// replays only those.
func FuzzReadStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := s.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("written store rejected: %v\n%s", err, a.Bytes())
		}
		if err := back.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("write -> read -> write not byte-identical:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
		}
	})
}
