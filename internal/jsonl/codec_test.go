package jsonl

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// kitchen has a field of every kind the codec declares, with the json
// tags encoding/json reads and writes it by.
type kitchen struct {
	T    string   `json:"t"`
	Run  int      `json:"run"`
	S    string   `json:"s"`
	SO   string   `json:"so,omitempty"`
	U    uint64   `json:"u"`
	UO   uint64   `json:"uo,omitempty"`
	U16  uint16   `json:"u16"`
	B    bool     `json:"b"`
	BP   *bool    `json:"bp,omitempty"`
	US   []uint64 `json:"us"`
	USO  []uint64 `json:"uso,omitempty"`
	Obj  *item    `json:"obj,omitempty"`
	List []item   `json:"list"`
}

type item struct {
	Name string `json:"name"`
	N    uint64 `json:"n"`
}

func (k *kitchen) Fields(c *Codec) {
	c.Str("t", &k.T)
	c.Int("run", &k.Run)
	c.Str("s", &k.S)
	c.StrOmit("so", &k.SO)
	c.Uint("u", &k.U)
	c.UintOmit("uo", &k.UO)
	c.Uint16("u16", &k.U16)
	c.Bool("b", &k.B)
	c.BoolPtr("bp", &k.BP)
	c.Uints("us", &k.US)
	c.UintsOmit("uso", &k.USO)
	Object(c, "obj", &k.Obj, (*item).fields)
	List(c, "list", &k.List, (*item).fields)
}

func (it *item) fields(c *Codec) {
	c.Str("name", &it.Name)
	c.Uint("n", &it.N)
}

// decodeLine decodes one line with the reader's codec.
func decodeLine(line string) (*kitchen, int, error) {
	c := Codec{index: "run", strs: map[string]string{}}
	var k kitchen
	if _, err := c.typeTag([]byte(line)); err != nil {
		return nil, 0, err
	}
	idx, err := c.decode([]byte(line), &k)
	return &k, idx, err
}

// TestCodecWritesLikeEncodingJSON: every field kind, and strings that
// need each kind of escape, encode to json.Encoder's bytes and decode
// back to what encoding/json decodes from them.
func TestCodecWritesLikeEncodingJSON(t *testing.T) {
	yes := false
	strs := []string{"", "plain", `q"b\s/`, "<a href='x'>&amp;</a>", "\b\f\n\r\t\x00\x01\x1f\x7f",
		"\u2028\u2029", "\xff\xfe bad \xc3", "é 漢字 😀 \ufffd", "\U0010FFFF"}
	for _, s := range strs {
		recs := []kitchen{
			{T: "k", S: s},
			{T: "k", Run: -7, S: s, SO: s, U: 1<<64 - 1, UO: 3, U16: 65535, B: true, BP: &yes,
				US: []uint64{}, USO: []uint64{0, 9}, Obj: &item{Name: s, N: 1},
				List: []item{{Name: s}, {N: 2}}},
			{T: s, Run: 1 << 40, List: []item{}},
		}
		for _, rec := range recs {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(&rec); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			w := NewWriter(&got)
			w.Write(&rec)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("wrote\n%s\nencoding/json writes\n%s", got.String(), want.String())
			}
			line := strings.TrimSpace(got.String())
			if rec.T != "k" {
				continue // decode needs the "t" the declaration expects first
			}
			assertDecodesLikeJSON(t, line)
		}
	}
}

// assertDecodesLikeJSON checks that the codec accepts line and decodes
// the values encoding/json decodes.
func assertDecodesLikeJSON(t *testing.T, line string) {
	t.Helper()
	got, idx, err := decodeLine(line)
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	var want kitchen
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("%s: encoding/json: %v", line, err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("%s:\ndecoded %+v\nencoding/json decodes %+v", line, *got, want)
	}
	if idx != want.Run {
		t.Fatalf("%s: parent index %d, want %d", line, idx, want.Run)
	}
}

// TestCodecReadsWhatEncodingJSONReads: input the writer never produces
// but encoding/json accepts decodes to the same values.
func TestCodecReadsWhatEncodingJSONReads(t *testing.T) {
	for _, line := range []string{
		`{"t":"k"}`,
		`{ "t" : "k" ,	"u" :1 , "s":"x" }`,
		"{\"t\":\"k\",\r\"u\":1}",
		`{"t":"k","list":[{"n":1,"name":"b"},{}],"s":"z","run":3,"obj":{"n":5}}`,
		`{"t":"k","run":-0,"u":0,"u16":0}`,
		`{"t":"k","run":-9223372036854775808,"u":18446744073709551615}`,
		`{"t":"k","s":"\u00e9\ud83d\ude00\/\"\\\b\f\n\r\t\u003C"}`,
		`{"t":"k","s":"lone \ud800 high, lone \udc00 low, \ud800\u0041 reversed \udc00\ud800"}`,
		`{"t":"k","s":"raw é and invalid ` + "\xff\xc3" + `"}`,
		`{"t":"k","us":null,"uso":[],"list":null,"bp":false}`,
		`{"t":"k","us":[ 1 , 2 ],"list":[ ]}`,
		`{"t":"k","obj":{}}`,
		`{"t":"\u006b"}`,
	} {
		assertDecodesLikeJSON(t, line)
	}
}

// TestCodecRejects: malformed records are rejected, each with an error
// naming what is wrong. The first group is also rejected by encoding/json;
// the second is the documented tightenings, which encoding/json accepts.
func TestCodecRejects(t *testing.T) {
	both := map[string]string{
		`{"t":"k","u":-1}`:                    `field "u": want an unsigned integer`,
		`{"t":"k","u":1.5}`:                   `want ',' or '}' after field "u"`,
		`{"t":"k","u":1e3}`:                   `want ',' or '}' after field "u"`,
		`{"t":"k","u":01}`:                    `want ',' or '}' after field "u"`,
		`{"t":"k","u":"1"}`:                   `field "u": want an unsigned integer`,
		`{"t":"k","u":18446744073709551616}`:  `field "u": want an unsigned integer`,
		`{"t":"k","u16":65536}`:               `field "u16": want an unsigned integer`,
		`{"t":"k","run":9223372036854775808}`: `field "run": want an integer`,
		`{"t":"k","run":-}`:                   `field "run": want an integer`,
		`{"t":"k","b":tru}`:                   `field "b": want true or false`,
		`{"t":"k","s":1}`:                     `field "s": want a string`,
		"{\"t\":\"k\",\"s\":\"a\x01\"}":       `field "s": control character in string`,
		`{"t":"k","s":"\q"}`:                  `field "s": invalid escape`,
		`{"t":"k","s":"\u12"}`:                `field "s": invalid escape`,
		`{"t":"k","s":"abc`:                   `field "s": unterminated string`,
		`{"t":"k","us":[1,]}`:                 `field "us": want an unsigned integer`,
		`{"t":"k","us":[1 2]}`:                `field "us": want ',' or ']'`,
		`{"t":"k","us":{}}`:                   `field "us": want an array`,
		`{"t":"k","list":[1]}`:                `want an object`,
		`{"t":"k","obj":{"x":1}}`:             `unknown field "x"`,
		`{"t":"k","zz":1}`:                    `unknown field "zz"`,
		`{"t":"k"} {}`:                        `data after the record`,
		`{"t":"k",}`:                          `want a key`,
		`{"t":"k","u" 1}`:                     `want ':'`,
		`{"t":"k"`:                            `want ',' or '}' after field "t"`,
		`["t"]`:                               `want an object`,
	}
	tight := map[string]string{
		`{"t":"k","u":1,"u":2}`:         `duplicate field "u"`,
		`{"t":"k","obj":{"n":1,"n":1}}`: `duplicate field "n"`,
		`{"t":"k","U":1}`:               `unknown field "U"`,
		`{"T":"k"}`:                     `first field is "T", not "t"`,
		`{"u":1,"t":"k"}`:               `first field is "u", not "t"`,
		`{"\u0074":"k"}`:                `escaped key`,
		`{"t":"k","\u0075":1}`:          `escaped key`,
		`{"t":"k","u":null}`:            `field "u": want an unsigned integer`,
		`{"t":"k","s":null}`:            `field "s": want a string`,
		`{"t":"k","bp":null}`:           `field "bp": want true or false`,
		`{"t":"k","obj":null}`:          `want an object`,
		`{"t":"k","us":[null]}`:         `field "us": want an unsigned integer`,
		`{"t":"k","list":[null]}`:       `want an object`,
	}
	for _, group := range []struct {
		jsonRejects bool
		cases       map[string]string
	}{{true, both}, {false, tight}} {
		for line, msg := range group.cases {
			_, _, err := decodeLine(line)
			if err == nil || !strings.Contains(err.Error(), msg) {
				t.Errorf("%s: got %v, want an error containing %q", line, err, msg)
			}
			var k kitchen
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			jsonErr := dec.Decode(&k)
			if jsonErr == nil && dec.More() {
				jsonErr = json.Unmarshal([]byte(line), &k) // trailing data
			}
			if (jsonErr != nil) != group.jsonRejects {
				t.Errorf("%s: encoding/json error %v: the case is in the wrong group", line, jsonErr)
			}
		}
	}
}
