package slo

import (
	"bytes"
	"testing"

	"tilgc/internal/jsonl"
	"tilgc/internal/jsonloracle"
)

// FuzzReadSLO: the reader never panics and agrees with encoding/json,
// the decoder it replaced, on every input (see jsonloracle.Schema.Check).
// Seeds live in testdata/fuzz/FuzzReadSLO (the harness golden report and
// one line per tightening); plain `go test` replays only those.
func FuzzReadSLO(f *testing.F) {
	schema := jsonloracle.Schema[*Report]{Format: reportFormat,
		Handler: func() jsonl.Handler { return new(reportReader) },
		Read:    ReadJSONL, Write: (*Report).WriteJSONL}
	f.Fuzz(func(t *testing.T, in []byte) {
		schema.Check(t, in)
		if rep, err := ReadJSONL(bytes.NewReader(in)); err == nil {
			_ = rep.Validate() // must not panic either
		}
	})
}
