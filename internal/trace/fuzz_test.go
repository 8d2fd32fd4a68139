package trace

import (
	"bytes"
	"testing"

	"tilgc/internal/jsonl"
	"tilgc/internal/jsonloracle"
)

// FuzzReadTrace: the reader never panics and agrees with encoding/json,
// the decoder it replaced, on every input (see jsonloracle.Schema.Check):
// same verdict up to the documented tightenings, same records, and
// written bytes equal to json.Encoder's that read back and rewrite
// unchanged. Seeds live in testdata/fuzz/FuzzReadTrace (the harness
// golden trace, one run with every record kind, and one line per
// tightening); plain `go test` replays only those.
func FuzzReadTrace(f *testing.F) {
	schema := jsonloracle.Schema[*File]{Format: traceFormat,
		Handler: func() jsonl.Handler { return new(fileReader) },
		Read:    ReadJSONL, Write: (*File).WriteJSONL}
	f.Fuzz(func(t *testing.T, in []byte) {
		schema.Check(t, in)
		if tf, err := ReadJSONL(bytes.NewReader(in)); err == nil {
			_ = tf.Validate() // must not panic either
		}
	})
}
