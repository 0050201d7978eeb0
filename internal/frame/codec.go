package frame

// codec.go is the one codec under both wire protocols and the journal
// record.  encoding/json is the definition of the format: a Codec's
// encoder writes the bytes json.Marshal would, and its decoder takes only
// the shape json.Marshal writes and hands every other line to
// json.Unmarshal, so decode errors and their text stay encoding/json's.
//
// A struct is described once, as a table of fields; each field names a
// Value, and a Value holds the encoder and the decoder of one JSON shape
// side by side, so the two directions cannot drift apart.

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Value is how one Go type travels in a frame.
type Value[V any] struct {
	// put appends *v as json.Marshal would; false means only
	// encoding/json can word what is wrong with it (NaN, Inf).
	put func(dst []byte, v *V) ([]byte, bool)
	// get parses the canonical form at b[i:] into *v and returns the
	// index after it, or -1: not mine, ask json.Unmarshal.
	get func(b []byte, i int, v *V) int
	// empty is encoding/json's omitempty test.
	empty func(v *V) bool
}

// The scalar values.
var (
	String  = Value[string]{putString, getString, func(v *string) bool { return *v == "" }}
	Int     = signed[int]()
	Int64   = signed[int64]()
	Uint64  = Value[uint64]{putUint, getUint, func(v *uint64) bool { return *v == 0 }}
	Float64 = Value[float64]{putFloat, getFloat, func(v *float64) bool { return *v == 0 }}
	Bool    = Value[bool]{putBool, getBool, func(v *bool) bool { return !*v }}
)

// Field is one row of a struct's table.
type Field[T any] struct {
	key   string // `"name":` as the encoder writes it
	omit  bool
	put   func(dst []byte, t *T) ([]byte, bool)
	get   func(b []byte, i int, t *T) int
	empty func(t *T) bool
}

// Of describes the field of T that at returns, under its struct tag: the
// JSON name, and ",omitempty" if the tag has it.  A field promoted from
// an embedded struct is one more row at the embedded struct's position,
// as encoding/json orders it.
func Of[T, V any](tag string, val Value[V], at func(*T) *V) Field[T] {
	name, omit := strings.CutSuffix(tag, ",omitempty")
	return Field[T]{
		key:   `"` + name + `":`,
		omit:  omit,
		put:   func(dst []byte, t *T) ([]byte, bool) { return val.put(dst, at(t)) },
		get:   func(b []byte, i int, t *T) int { return val.get(b, i, at(t)) },
		empty: func(t *T) bool { return val.empty(at(t)) },
	}
}

// Codec encodes and decodes T by its field table.
type Codec[T any] struct {
	fields []Field[T]
}

// NewCodec builds the codec of T from its fields in declaration order.
func NewCodec[T any](fields ...Field[T]) *Codec[T] {
	if len(fields) > 64 {
		panic("frame: a codec tracks at most 64 fields")
	}
	return &Codec[T]{fields: fields}
}

// Append appends v as json.Marshal(v) would write it; the error, if any,
// is json.Marshal's.
func (c *Codec[T]) Append(dst []byte, v *T) ([]byte, error) {
	if out, ok := c.put(dst, v); ok {
		return out, nil
	}
	data, err := json.Marshal(v)
	return append(dst, data...), err
}

// Parse decodes line into *v as json.Unmarshal would into a zero T; the
// error, if any, is json.Unmarshal's.
func (c *Codec[T]) Parse(line []byte, v *T) error {
	_, err := c.read(line, v)
	return err
}

// read is Parse reporting whether the fast path took line: then every
// string in it is plain ASCII without an escape, and every key one of
// the table's, at most once.
func (c *Codec[T]) read(line []byte, v *T) (fast bool, err error) {
	var zero T
	*v = zero
	if i := c.get(line, skipSpace(line, 0), v); i >= 0 && skipSpace(line, i) == len(line) {
		return true, nil
	}
	*v = zero
	return false, json.Unmarshal(line, v)
}

// Value is T as a nested object.
func (c *Codec[T]) Value() Value[T] {
	return Value[T]{put: c.put, get: c.get, empty: func(*T) bool { return false }}
}

func (c *Codec[T]) put(dst []byte, v *T) ([]byte, bool) {
	dst = append(dst, '{')
	first := true
	for i := range c.fields {
		f := &c.fields[i]
		if f.omit && f.empty(v) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, f.key...)
		var ok bool
		if dst, ok = f.put(dst, v); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// get takes an object whose keys are each exactly one field's name, at
// most once.  Anything else — a key encoding/json would match by folding
// case, an unknown or repeated one — is not its to judge.
func (c *Codec[T]) get(b []byte, i int, v *T) int {
	var seen uint64
	next := 0
	return elements(b, i, '{', '}', func(i int) int {
		f := c.field(b, i, next)
		if f < 0 || seen&(1<<f) != 0 {
			return -1
		}
		seen |= 1 << f
		next = f + 1
		// The key matched through its colon: a space before the colon
		// is legal JSON, and json.Unmarshal's to read.
		return c.fields[f].get(b, skipSpace(b, i+len(c.fields[f].key)), v)
	})
}

// elements walks the container that opens at b[i], calling elem at the
// first byte of each comma-separated element for the index after it, and
// returns the index after the closing byte; -1 once elem does, or where
// the punctuation is not a container's.
func elements(b []byte, i int, open, shut byte, elem func(i int) int) int {
	if i >= len(b) || b[i] != open {
		return -1
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == shut {
		return i + 1
	}
	for {
		if i = skipSpace(b, elem(i)); i < 0 || i >= len(b) {
			return -1
		}
		if b[i] == shut {
			return i + 1
		}
		if b[i] != ',' {
			return -1
		}
		i = skipSpace(b, i+1)
	}
}

// field finds the field whose key stands at b[i:], trying first the one
// the encoder would have written next.
func (c *Codec[T]) field(b []byte, i, next int) int {
	rest := b[i:]
	at := func(f int) bool {
		key := c.fields[f].key
		return len(rest) >= len(key) && string(rest[:len(key)]) == key
	}
	if next < len(c.fields) && at(next) {
		return next
	}
	for f := range c.fields {
		if at(f) {
			return f
		}
	}
	return -1
}

// Ptr is a pointer to an inner value: null when nil, allocated on decode.
func Ptr[V any](inner Value[V]) Value[*V] {
	return Value[*V]{
		put: func(dst []byte, v **V) ([]byte, bool) {
			if *v == nil {
				return append(dst, "null"...), true
			}
			return inner.put(dst, *v)
		},
		get: func(b []byte, i int, v **V) int {
			*v = new(V)
			return inner.get(b, i, *v)
		},
		empty: func(v **V) bool { return *v == nil },
	}
}

// Cold is a pointer to a sub-object that stays on encoding/json: rare
// enough that a table for it would be code without a workload.
func Cold[V any]() Value[*V] {
	return Value[*V]{
		put: func(dst []byte, v **V) ([]byte, bool) {
			data, err := json.Marshal(*v)
			return append(dst, data...), err == nil
		},
		get:   func([]byte, int, **V) int { return -1 },
		empty: func(v **V) bool { return *v == nil },
	}
}

// Slice is a JSON array of elem: null when nil.
func Slice[V any](elem Value[V]) Value[[]V] {
	return Value[[]V]{
		put: func(dst []byte, v *[]V) ([]byte, bool) {
			if *v == nil {
				return append(dst, "null"...), true
			}
			dst = append(dst, '[')
			for i := range *v {
				if i > 0 {
					dst = append(dst, ',')
				}
				var ok bool
				if dst, ok = elem.put(dst, &(*v)[i]); !ok {
					return dst, false
				}
			}
			return append(dst, ']'), true
		},
		get: func(b []byte, i int, v *[]V) int {
			s := []V{}
			i = elements(b, i, '[', ']', func(i int) int {
				if cap(s) == 0 {
					s = make([]V, 0, 1+commas(b, i)) // sized once, not grown
				}
				s = append(s, *new(V))
				return elem.get(b, i, &s[len(s)-1])
			})
			*v = s
			return i
		},
		empty: func(v *[]V) bool { return len(*v) == 0 },
	}
}

// commas counts the commas between the elements of the array whose first
// element starts at b[i].  It does not read strings, so one that holds a
// bracket or a comma can only make the capacity it sizes a wrong guess.
// A flat array is counted by bytes.Count up to its first ']'; only one
// that holds an array or an object is walked depth by depth.
func commas(b []byte, i int) int {
	if end := bytes.IndexByte(b[i:], ']'); end >= 0 {
		if flat := b[i : i+end]; bytes.IndexByte(flat, '[') < 0 && bytes.IndexByte(flat, '{') < 0 {
			return bytes.Count(flat, []byte{','})
		}
	}
	n := 0
	for depth := 0; i < len(b); i++ {
		switch b[i] {
		case ',':
			if depth == 0 {
				n++
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth < 0 {
				return n
			}
		}
	}
	return n
}

// Map is a JSON object of elem under string keys, written in sorted key
// order: null when nil.
func Map[V any](elem Value[V]) Value[map[string]V] {
	return Value[map[string]V]{
		put: func(dst []byte, v *map[string]V) ([]byte, bool) {
			if *v == nil {
				return append(dst, "null"...), true
			}
			var stack [64]string
			keys := stack[:0]
			for k := range *v {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			dst = append(dst, '{')
			x := new(V)
			for i := range keys {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst, _ = putString(dst, &keys[i])
				dst = append(dst, ':')
				*x = (*v)[keys[i]]
				var ok bool
				if dst, ok = elem.put(dst, x); !ok {
					return dst, false
				}
			}
			return append(dst, '}'), true
		},
		get: func(b []byte, i int, v *map[string]V) int {
			// A repeated key overwrites, as it does in encoding/json,
			// which zeroes the element before it decodes into it.
			m, k, x := map[string]V{}, "", new(V)
			*v = m
			return elements(b, i, '{', '}', func(i int) int {
				if i = skipSpace(b, getString(b, i, &k)); i < 0 || i >= len(b) || b[i] != ':' {
					return -1
				}
				*x = *new(V)
				i = elem.get(b, skipSpace(b, i+1), x)
				m[k] = *x
				return i
			})
		},
		empty: func(v *map[string]V) bool { return len(*v) == 0 },
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON white space; a negative i (a failed parse) passes through.
func skipSpace(b []byte, i int) int {
	if i < 0 {
		return i
	}
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// putString writes a string of printable ASCII itself; one with a quote,
// a backslash, a character encoding/json's HTML escaping rewrites, a
// control byte or anything past ASCII (invalid UTF-8, U+2028/9) it has
// json.Marshal quote.
func putString(dst []byte, v *string) ([]byte, bool) {
	s := *v
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			data, _ := json.Marshal(s)
			return append(dst, data...), true
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// AppendString appends s as json.Marshal writes it.
func AppendString(dst []byte, s string) []byte {
	dst, _ = putString(dst, &s)
	return dst
}

// getString takes a string the decoder can copy out as it lies: no
// escape, no control byte, nothing outside ASCII (encoding/json replaces
// invalid UTF-8, so judging any of it is left to encoding/json).
func getString(b []byte, i int, v *string) int {
	if i < 0 || i >= len(b) || b[i] != '"' {
		return -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			*v = string(b[i+1 : j])
			return j + 1
		case c < 0x20 || c >= 0x80 || c == '\\':
			return -1
		}
	}
	return -1
}

// number returns the end of the JSON number at b[i:] and whether it is
// an integer literal; the end is -1 when the bytes are outside the
// grammar -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
func number(b []byte, i int) (end int, integer bool) {
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return -1, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if integer = false; !digits() {
			return -1, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return -1, false
		}
	}
	return i, integer
}

func signed[I int | int64]() Value[I] {
	return Value[I]{
		put: func(dst []byte, v *I) ([]byte, bool) { return strconv.AppendInt(dst, int64(*v), 10), true },
		get: func(b []byte, i int, v *I) int {
			// The magnitude may reach 2^63 only under a minus sign.
			limit, negative := uint64(1<<63-1), i < len(b) && b[i] == '-'
			if negative {
				limit, i = limit+1, i+1
			}
			u, end := integer(b, i)
			x := int64(u) // -(1<<63) wraps onto itself, the least int64
			if negative {
				x = -x
			}
			if *v = I(x); end < 0 || u > limit || int64(*v) != x {
				return -1
			}
			return end
		},
		empty: func(v *I) bool { return *v == 0 },
	}
}

func putUint(dst []byte, v *uint64) ([]byte, bool) { return strconv.AppendUint(dst, *v, 10), true }

// getUint takes no sign: "-0" is an error in encoding/json.
func getUint(b []byte, i int, v *uint64) int {
	x, end := integer(b, i)
	if end >= 0 {
		*v = x
	}
	return end
}

// integer reads the digits of an unsigned JSON integer at b[i:] and
// returns its value and the index after it, or -1 for what only
// encoding/json may judge: no digit, a leading zero, a fraction or an
// exponent, or a value past uint64.
func integer(b []byte, i int) (uint64, int) {
	start := i
	var x uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if x > (math.MaxUint64-d)/10 {
			return 0, -1
		}
		x = x*10 + d
	}
	switch {
	case i == start, b[start] == '0' && i > start+1:
		return 0, -1
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, -1
	}
	return x, i
}

// putFloat is encoding/json's floatEncoder: ES6 number-to-string, 'e'
// form below 1e-6 and from 1e21, a two-digit negative exponent trimmed.
func putFloat(dst []byte, v *float64) ([]byte, bool) {
	f := *v
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

func getFloat(b []byte, i int, v *float64) int {
	end, _ := number(b, i)
	if end < 0 {
		return -1
	}
	// Out of range is an error in encoding/json, and so its to report.
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return -1
	}
	*v = f
	return end
}

func putBool(dst []byte, v *bool) ([]byte, bool) { return strconv.AppendBool(dst, *v), true }

func getBool(b []byte, i int, v *bool) int {
	switch rest := b[i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*v = true
		return i + 4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*v = false
		return i + 5
	}
	return -1
}
