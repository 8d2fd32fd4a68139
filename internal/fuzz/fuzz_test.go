package fuzz

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseProgram: the corpus parser never panics, any program it
// accepts survives Format and Parse unchanged, and Format is a fixed
// point. Seeds are the committed corpus files; plain `go test` replays
// only those.
func FuzzParseProgram(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("corpus", "*"+CorpusExt))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParseString(in)
		if err != nil {
			return
		}
		text := p.Format()
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("formatted program rejected: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("parse -> format -> parse changed the program:\n%+v\nvs\n%+v", p, back)
		}
		if again := back.Format(); again != text {
			t.Fatalf("format is not a fixed point:\n%s\nvs\n%s", text, again)
		}
	})
}
