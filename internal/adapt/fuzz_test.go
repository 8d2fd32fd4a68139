package adapt

import (
	"testing"

	"tilgc/internal/jsonl"
	"tilgc/internal/jsonloracle"
)

// FuzzReadStore: the reader never panics and agrees with encoding/json,
// the decoder it replaced, on every input (see jsonloracle.Schema.Check).
// Seeds live in testdata/fuzz/FuzzReadStore (a small written store and
// one line per tightening); plain `go test` replays only those.
func FuzzReadStore(f *testing.F) {
	schema := jsonloracle.Schema[*Store]{Format: storeFormat,
		Handler: func() jsonl.Handler { return new(storeReader) },
		Read:    ReadJSONL, Write: (*Store).WriteJSONL}
	f.Fuzz(func(t *testing.T, in []byte) {
		schema.Check(t, in)
	})
}
