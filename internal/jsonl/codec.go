package jsonl

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Fields is implemented by every record type a format reads or writes.
type Fields interface {
	// Fields declares the record's fields, each once, in wire order, by
	// calling c's methods with the field's key and address. The same
	// declaration encodes and decodes the record.
	Fields(c *Codec)
}

// Codec runs field declarations in one direction. A Writer's Codec
// appends each declared field to the line it builds. A reader's Codec
// matches each declared key against the line it scans and decodes the
// value in place. Keys must be plain ASCII: they are written unescaped.
type Codec struct {
	mode mode

	// Encoding.
	buf   []byte // lines not yet flushed
	comma bool   // a field precedes in the current object

	// Decoding.
	line  []byte
	pos   int    // next unread byte of line
	obj   object // the innermost object being decoded
	depth int    // 1 inside the record itself
	err   error
	index string            // the record field that holds the parent index
	idx   int               // its value on the current line, 0 when absent
	text  []byte            // unescaped string scratch
	nums  []uint64          // array scratch
	strs  map[string]string // every string decoded so far, each allocated once
	last  string            // the string decoded last
}

type mode uint8

const (
	encoding mode = iota
	zeroing       // decoding, before the scan: every field is set to zero
	decoding
)

// object is the scan state of one JSON object. Its keys are matched by
// sweeping the declaration: one sweep per line when the keys come in
// wire order, one more per key that does not.
type object struct {
	key   []byte // the pending key; nil once the object is closed
	n     int    // fields declared so far in this sweep
	seen  uint64 // fields decoded, by declaration order
	moved bool   // this sweep decoded a field
}

// op is what a declared field does on this call.
type op uint8

const (
	opSkip op = iota
	opEncode
	opZero
	opDecode
)

// field advances the declaration by one field. Encoding, it writes the
// key. Decoding, it reports opDecode when key is the pending key, with the
// scan at the value.
func (c *Codec) field(key string) op {
	switch c.mode {
	case encoding:
		if c.comma {
			c.buf = append(c.buf, ',')
		}
		c.comma = true
		c.buf = append(c.buf, '"')
		c.buf = append(c.buf, key...)
		c.buf = append(c.buf, '"', ':')
		return opEncode
	case zeroing:
		return opZero
	}
	o := &c.obj
	i := o.n
	o.n++
	if i >= 64 {
		panic("jsonl: a record declares more than 64 fields")
	}
	if c.err != nil || o.key == nil || string(o.key) != key {
		return opSkip
	}
	if o.seen&(1<<i) != 0 {
		c.fail("duplicate field %q", key)
		return opSkip
	}
	o.seen |= 1 << i
	o.moved = true
	return opDecode
}

// Str declares a string field.
func (c *Codec) Str(key string, p *string) {
	switch c.field(key) {
	case opEncode:
		c.buf = appendString(c.buf, *p)
	case opZero:
		*p = ""
	case opDecode:
		*p = c.str()
		c.next()
	}
}

// StrOmit declares a string field written only when non-empty.
func (c *Codec) StrOmit(key string, p *string) {
	if c.mode != encoding || *p != "" {
		c.Str(key, p)
	}
}

// Int declares a signed integer field.
func (c *Codec) Int(key string, p *int) {
	switch c.field(key) {
	case opEncode:
		c.buf = strconv.AppendInt(c.buf, int64(*p), 10)
	case opZero:
		*p = 0
	case opDecode:
		*p = c.int()
		if c.depth == 1 && key == c.index {
			c.idx = *p
		}
		c.next()
	}
}

// Uint declares an unsigned integer field.
func (c *Codec) Uint(key string, p *uint64) {
	switch c.field(key) {
	case opEncode:
		c.buf = strconv.AppendUint(c.buf, *p, 10)
	case opZero:
		*p = 0
	case opDecode:
		*p = c.uint(math.MaxUint64)
		c.next()
	}
}

// UintOmit declares an unsigned integer field written only when nonzero.
func (c *Codec) UintOmit(key string, p *uint64) {
	if c.mode != encoding || *p != 0 {
		c.Uint(key, p)
	}
}

// Uint16 declares a 16-bit unsigned integer field.
func (c *Codec) Uint16(key string, p *uint16) {
	switch c.field(key) {
	case opEncode:
		c.buf = strconv.AppendUint(c.buf, uint64(*p), 10)
	case opZero:
		*p = 0
	case opDecode:
		*p = uint16(c.uint(math.MaxUint16))
		c.next()
	}
}

// Bool declares a boolean field.
func (c *Codec) Bool(key string, p *bool) {
	switch c.field(key) {
	case opEncode:
		c.buf = strconv.AppendBool(c.buf, *p)
	case opZero:
		*p = false
	case opDecode:
		*p = c.bool()
		c.next()
	}
}

// BoolPtr declares a boolean field held by pointer, written only when the
// pointer is non-nil.
func (c *Codec) BoolPtr(key string, p **bool) {
	if c.mode == encoding && *p == nil {
		return
	}
	switch c.field(key) {
	case opEncode:
		c.buf = strconv.AppendBool(c.buf, **p)
	case opZero:
		*p = nil
	case opDecode:
		v := c.bool()
		*p = &v
		c.next()
	}
}

// Uints declares an array of unsigned integers, written as null when nil.
func (c *Codec) Uints(key string, p *[]uint64) {
	switch c.field(key) {
	case opEncode:
		if *p == nil {
			c.buf = append(c.buf, "null"...)
			return
		}
		c.buf = append(c.buf, '[')
		for i, v := range *p {
			if i > 0 {
				c.buf = append(c.buf, ',')
			}
			c.buf = strconv.AppendUint(c.buf, v, 10)
		}
		c.buf = append(c.buf, ']')
	case opZero:
		*p = nil
	case opDecode:
		*p = c.uints()
		c.next()
	}
}

// UintsOmit declares an array of unsigned integers written only when
// non-empty.
func (c *Codec) UintsOmit(key string, p *[]uint64) {
	if c.mode != encoding || len(*p) > 0 {
		c.Uints(key, p)
	}
}

// Object declares an object field held by pointer and written only when
// the pointer is non-nil; fields declares the object's own fields.
func Object[T any](c *Codec, key string, p **T, fields func(*T, *Codec)) {
	if c.mode == encoding && *p == nil {
		return
	}
	switch c.field(key) {
	case opEncode:
		c.encodeObject(func() { fields(*p, c) })
	case opZero:
		*p = nil
	case opDecode:
		v := new(T)
		c.decodeObject(func() { fields(v, c) })
		*p = v
		c.next()
	}
}

// List declares an array of objects, written as null when nil; fields
// declares each element's fields.
func List[T any](c *Codec, key string, p *[]T, fields func(*T, *Codec)) {
	switch c.field(key) {
	case opEncode:
		if *p == nil {
			c.buf = append(c.buf, "null"...)
			return
		}
		c.buf = append(c.buf, '[')
		for i := range *p {
			if i > 0 {
				c.buf = append(c.buf, ',')
			}
			c.encodeObject(func() { fields(&(*p)[i], c) })
		}
		c.buf = append(c.buf, ']')
	case opZero:
		*p = nil
	case opDecode:
		if c.null() {
			*p = nil
		} else if c.array() {
			s := []T{}
			for first := true; c.more(first); first = false {
				var zero T
				s = append(s, zero)
				v := &s[len(s)-1]
				c.decodeObject(func() { fields(v, c) })
			}
			*p = s
		}
		c.next()
	}
}

func (c *Codec) encodeObject(fields func()) {
	c.buf = append(c.buf, '{')
	c.comma = false
	fields()
	c.buf = append(c.buf, '}')
	c.comma = true
}

// decode decodes line, whose record type tag is already known, into rec.
// It returns the record's parent index, or 0 when the line has none.
func (c *Codec) decode(line []byte, rec Fields) (int, error) {
	c.mode = zeroing
	rec.Fields(c)
	c.mode, c.line, c.pos, c.idx, c.err = decoding, line, 0, 0, nil
	c.decodeObject(func() { rec.Fields(c) })
	if c.err == nil {
		c.space()
		if c.pos < len(c.line) {
			c.fail("data after the record at byte %d", c.pos)
		}
	}
	return c.idx, c.err
}

// decodeObject decodes the object that starts at the scan into the fields
// the declaration names, sweeping it until every key is matched.
func (c *Codec) decodeObject(fields func()) {
	if !c.expect('{', "an object") {
		return
	}
	outer := c.obj
	c.obj = object{}
	c.depth++
	c.space()
	if c.pos < len(c.line) && c.line[c.pos] == '}' {
		c.pos++
	} else {
		c.readKey()
	}
	for c.err == nil && c.obj.key != nil {
		c.obj.n, c.obj.moved = 0, false
		fields()
		if c.err == nil && !c.obj.moved {
			c.fail("unknown field %q", c.obj.key)
		}
	}
	c.depth--
	c.obj = outer
}

// typeTag reads the record type tag, which must be the line's first field.
func (c *Codec) typeTag(line []byte) (string, error) {
	c.mode, c.line, c.pos, c.err = decoding, line, 0, nil
	if c.expect('{', "an object") {
		c.space()
		c.readKey()
	}
	if c.err != nil {
		return "", c.err
	}
	if string(c.obj.key) != "t" {
		return "", fmt.Errorf("first field is %q, not \"t\"", c.obj.key)
	}
	t := c.str()
	c.obj = object{}
	return t, c.err
}

// next reads past the value just decoded to the object's next key, or
// closes the object.
func (c *Codec) next() {
	if c.err != nil {
		return
	}
	c.space()
	if c.pos < len(c.line) {
		switch c.line[c.pos] {
		case ',':
			c.pos++
			c.space()
			c.readKey()
			return
		case '}':
			c.pos++
			c.obj.key = nil
			return
		}
	}
	c.fail("want ',' or '}' after field %q at byte %d", c.obj.key, c.pos)
}

// readKey reads a key and its colon, leaving the scan at the value.
func (c *Codec) readKey() {
	s, i := c.line, c.pos
	if i >= len(s) || s[i] != '"' {
		c.fail("want a key at byte %d", i)
		return
	}
	i++
	start := i
	for i < len(s) && s[i] != '"' && s[i] != '\\' {
		i++
	}
	switch {
	case i == len(s):
		c.fail("unterminated key")
		return
	case s[i] == '\\':
		c.fail("escaped key at byte %d", i)
		return
	}
	c.obj.key = s[start:i]
	c.pos = i + 1
	if c.pos < len(s) && s[c.pos] == ':' {
		c.pos++
	} else {
		c.space()
		if !c.expect(':', "':'") {
			return
		}
	}
	c.space()
}

func (c *Codec) space() {
	for c.pos < len(c.line) {
		switch c.line[c.pos] {
		case ' ', '\t', '\r', '\n':
			c.pos++
		default:
			return
		}
	}
}

// expect consumes b or fails naming what was wanted.
func (c *Codec) expect(b byte, what string) bool {
	if c.err != nil {
		return false
	}
	if c.pos < len(c.line) && c.line[c.pos] == b {
		c.pos++
		return true
	}
	c.fail("want %s at byte %d", what, c.pos)
	return false
}

func (c *Codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// failValue reports a value that is not of its field's type.
func (c *Codec) failValue(what string) {
	c.fail("field %q: want %s at byte %d", c.obj.key, what, c.pos)
}

// digits reads an unsigned decimal integer no greater than max.
func (c *Codec) digits(max uint64) (uint64, bool) {
	s, i := c.line, c.pos
	if i >= len(s) || s[i]-'0' > 9 {
		return 0, false
	}
	var v uint64
	if s[i] == '0' {
		i++
	} else {
		cutoff := max / 10
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			d := uint64(s[i] - '0')
			if v >= cutoff && (v > cutoff || d > max%10) {
				return 0, false
			}
			v = v*10 + d
		}
	}
	c.pos = i
	return v, true
}

func (c *Codec) uint(max uint64) uint64 {
	v, ok := c.digits(max)
	if !ok {
		c.failValue("an unsigned integer")
	}
	return v
}

func (c *Codec) int() int {
	neg := c.pos < len(c.line) && c.line[c.pos] == '-'
	if neg {
		c.pos++
	}
	max := uint64(math.MaxInt64)
	if neg {
		max++
	}
	v, ok := c.digits(max)
	if !ok {
		c.failValue("an integer")
	}
	if neg {
		return int(-v)
	}
	return int(v)
}

func (c *Codec) bool() bool {
	if c.literal("true") {
		return true
	}
	if !c.literal("false") {
		c.failValue("true or false")
	}
	return false
}

// null consumes a null literal if one is next.
func (c *Codec) null() bool { return c.literal("null") }

func (c *Codec) literal(lit string) bool {
	if c.err == nil && len(c.line)-c.pos >= len(lit) && string(c.line[c.pos:c.pos+len(lit)]) == lit {
		c.pos += len(lit)
		return true
	}
	return false
}

// array reads the '[' that opens an array.
func (c *Codec) array() bool {
	if c.err == nil && c.pos < len(c.line) && c.line[c.pos] == '[' {
		c.pos++
		return true
	}
	c.failValue("an array")
	return false
}

// more reports whether the array being read has another element, with
// the scan at it, or reads the closing ']'.
func (c *Codec) more(first bool) bool {
	if c.err != nil {
		return false
	}
	c.space()
	if c.pos < len(c.line) {
		switch c.line[c.pos] {
		case ']':
			c.pos++
			return false
		case ',':
			if !first {
				c.pos++
				c.space()
				return true
			}
		default:
			if first {
				return true
			}
		}
	}
	c.fail("field %q: want ',' or ']' at byte %d", c.obj.key, c.pos)
	return false
}

// uints decodes an array of unsigned integers, or null as nil.
func (c *Codec) uints() []uint64 {
	if c.null() || !c.array() {
		return nil
	}
	c.nums = c.nums[:0]
	for first := true; c.more(first); first = false {
		c.nums = append(c.nums, c.uint(math.MaxUint64))
	}
	out := make([]uint64, len(c.nums))
	copy(out, c.nums)
	return out
}

// str decodes a string, unescaping it as encoding/json does.
func (c *Codec) str() string {
	s, i := c.line, c.pos
	if i >= len(s) || s[i] != '"' {
		c.failValue("a string")
		return ""
	}
	i++
	start := i
	for i < len(s) && s[i] != '"' && s[i] != '\\' && s[i] >= 0x20 && s[i] < utf8.RuneSelf {
		i++
	}
	if i < len(s) && s[i] == '"' {
		c.pos = i + 1
		return c.intern(s[start:i])
	}
	t := append(c.text[:0], s[start:i]...)
	for {
		if i >= len(s) {
			c.fail("field %q: unterminated string", c.obj.key)
			return ""
		}
		switch b := s[i]; {
		case b == '"':
			c.pos, c.text = i+1, t
			return c.intern(t)
		case b < 0x20:
			c.fail("field %q: control character in string at byte %d", c.obj.key, i)
			return ""
		case b == '\\':
			r, n := unescape(s[i:])
			if n == 0 {
				c.fail("field %q: invalid escape at byte %d", c.obj.key, i)
				return ""
			}
			t = utf8.AppendRune(t, r)
			i += n
		case b < utf8.RuneSelf:
			t = append(t, b)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:]) // invalid UTF-8 reads as U+FFFD
			t = utf8.AppendRune(t, r)
			i += n
		}
	}
}

// unescape decodes the escape sequence at the start of s and returns its
// rune and length, or length 0 if it is invalid. A \u surrogate that is
// not half of a valid pair reads as U+FFFD.
func unescape(s []byte) (rune, int) {
	if len(s) < 2 {
		return 0, 0
	}
	switch s[1] {
	case '"', '\\', '/':
		return rune(s[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r := hex4(s)
		if r < 0 {
			return 0, 0
		}
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if d := utf16.DecodeRune(r, hex4(s[6:])); d != unicode.ReplacementChar {
			return d, 12
		}
		return unicode.ReplacementChar, 6
	}
	return 0, 0
}

// hex4 decodes a \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, b := range s[2:6] {
		switch {
		case '0' <= b && b <= '9':
			b -= '0'
		case 'a' <= b && b <= 'f':
			b -= 'a' - 10
		case 'A' <= b && b <= 'F':
			b -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(b)
	}
	return r
}

func (c *Codec) intern(b []byte) string {
	if string(b) == c.last {
		return c.last
	}
	s, ok := c.strs[string(b)]
	if !ok {
		s = string(b)
		c.strs[s] = s
	}
	c.last = s
	return s
}

const hex = "0123456789abcdef"

// appendString appends s quoted exactly as encoding/json's Encoder quotes
// it: HTML-escaped, with U+2028 and U+2029 escaped and invalid UTF-8
// written as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
