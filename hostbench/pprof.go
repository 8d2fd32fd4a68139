package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// addPackageSelf decodes a runtime/pprof CPU profile and adds each
// package group's self time, in nanoseconds, to self (see packageOf).
// Self time goes to the innermost function of each sample's leaf
// location. The decoder reads only the profile.proto fields it needs:
// samples, locations, functions and the string table.
func addPackageSelf(self map[string]float64, profile []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]int64{}  // function id → string index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			s.leaf, s.value = locs[0], vals[len(vals)-1]
			samples = append(samples, s)
		case 4: // Profile.location
			var id, fn uint64
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line; the first is the innermost
					if first {
						first = false
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Profile.function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		self[packageOf(name)] += float64(s.value)
	}
	return nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint value, b the bytes of a length-delimited one.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// it was encoded unpacked, all of b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// packageOf maps a profiled function name to its package group: the
// module's internal packages by their last element, the public gcsim
// package, this benchmark ("bench"), the Go runtime ("goruntime"), and
// the rest of the standard library ("stdlib").
func packageOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "tilgc/internal/"):
		return strings.TrimPrefix(pkg, "tilgc/internal/")
	case pkg == "tilgc/gcsim":
		return "gcsim"
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || !strings.Contains(fn, "."):
		return "goruntime"
	}
	return "stdlib"
}
