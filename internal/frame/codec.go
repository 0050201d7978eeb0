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
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
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
	head  uint64 // the key's first eight bytes, little-endian, under mask
	mask  uint64
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
	key := `"` + name + `":`
	var head [8]byte
	n := copy(head[:], key)
	return Field[T]{
		key:   key,
		head:  binary.LittleEndian.Uint64(head[:]),
		mask:  math.MaxUint64 >> (64 - 8*n),
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
	i, more := first(b, i, '{', '}')
	for more {
		f := c.field(b, i, next)
		if f < 0 || seen&(1<<f) != 0 {
			return -1
		}
		seen |= 1 << f
		next = f + 1
		// The key matched through its colon: a space before the colon
		// is legal JSON, and json.Unmarshal's to read.
		i, more = after(b, c.fields[f].get(b, skipSpace(b, i+len(c.fields[f].key)), v), '}')
	}
	return i
}

// first opens the container whose open byte is at b[i]: it returns the
// index of the first element and true, or for an empty container the
// index after its shut byte and false; -1 and false where b[i] opens no
// container or the line ends inside it.  A container's decoder loops
// "for more", reading an element and handing its end to after.
func first(b []byte, i int, open, shut byte) (int, bool) {
	if i < 0 || i >= len(b) || b[i] != open {
		return -1, false
	}
	switch i = skipSpace(b, i+1); {
	case i >= len(b):
		return -1, false
	case b[i] == shut:
		return i + 1, false
	}
	return i, true
}

// after reads the punctuation after an element that ended at b[i]: a
// comma gives the index of the next element and true, the container's
// shut byte the index after it and false; anything else, or a failed
// element (i < 0), gives -1 and false.
func after(b []byte, i int, shut byte) (int, bool) {
	if i = skipSpace(b, i); uint(i) < uint(len(b)) {
		if b[i] == ',' {
			return skipSpace(b, i+1), true
		}
		if b[i] == shut {
			return i + 1, false
		}
	}
	return -1, false
}

// field finds the field whose key stands at b[i:], trying first the one
// the encoder would have written next.
func (c *Codec[T]) field(b []byte, i, next int) int {
	rest := b[i:]
	if next < len(c.fields) && c.fields[next].at(rest) {
		return next
	}
	for f := range c.fields {
		if c.fields[f].at(rest) {
			return f
		}
	}
	return -1
}

// at reports whether rest starts with f's key, comparing its first eight
// bytes as one word.
func (f *Field[T]) at(rest []byte) bool {
	if len(rest) < 8 {
		return len(rest) >= len(f.key) && string(rest[:len(f.key)]) == f.key
	}
	return binary.LittleEndian.Uint64(rest)&f.mask == f.head &&
		(len(f.key) <= 8 || len(rest) >= len(f.key) && string(rest[8:len(f.key)]) == f.key[8:])
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
			i, more := first(b, i, '[', ']')
			if more {
				s = make([]V, 0, count(b, i)) // sized once, not grown
			}
			for more {
				s = append(s, *new(V))
				i, more = after(b, elem.get(b, i, &s[len(s)-1]), ']')
			}
			*v = s
			return i
		},
		empty: func(v *[]V) bool { return len(*v) == 0 },
	}
}

// count sizes the array whose first element starts at b[i] before any
// element is read.  It does not read strings, so one that holds a
// bracket, a brace or a comma can only make the capacity a wrong guess.
// Up to the first ']', where no '[' comes before it, an array of scalars
// is counted by bytes.Count of its commas and an array of flat objects by
// that of its '{' (where it equals the count of '}'); only an array that
// holds an array, or a mixed one, is walked depth by depth.
func count(b []byte, i int) int {
	if end := bytes.IndexByte(b[i:], ']'); end >= 0 {
		if seg := b[i : i+end]; bytes.IndexByte(seg, '[') < 0 {
			if b[i] == '{' {
				if n := bytes.Count(seg, []byte{'{'}); n == bytes.Count(seg, []byte{'}'}) {
					return n
				}
			} else if bytes.IndexByte(seg, '{') < 0 {
				return 1 + bytes.Count(seg, []byte{','})
			}
		}
	}
	n := 1
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
// order as putString writes any string: null when nil.  key decodes the
// keys, String or a Names vocabulary.
func Map[V any](key Value[string], elem Value[V]) Value[map[string]V] {
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
			i, more := first(b, i, '{', '}')
			n := 0
			if more {
				n = entries(b, i)
			}
			m, k, x := make(map[string]V, n), "", new(V)
			*v = m
			for more {
				if i = skipSpace(b, key.get(b, i, &k)); i < 0 || i >= len(b) || b[i] != ':' {
					return -1
				}
				*x = *new(V)
				i = elem.get(b, skipSpace(b, i+1), x)
				m[k] = *x
				i, more = after(b, i, '}')
			}
			return i
		},
		empty: func(v *map[string]V) bool { return len(*v) == 0 },
	}
}

// entries sizes the object whose first key starts at b[i] before any
// is read: where no '{' comes before its first '}', by bytes.Count of its
// commas; an object of objects is left to grow.  Like count it reads no
// string, so one holding a brace or a comma only makes a wrong guess.
func entries(b []byte, i int) int {
	if end := bytes.IndexByte(b[i:], '}'); end >= 0 && bytes.IndexByte(b[i:i+end], '{') < 0 {
		return 1 + bytes.Count(b[i:i+end], []byte{','})
	}
	return 0
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON white space; a negative i (a failed parse) passes through.  Every
// byte above ' ' ends it at once: a canonical line has no white space.
func skipSpace(b []byte, i int) int {
	for uint(i) < uint(len(b)) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
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

// getString takes a string the decoder can copy out as it lies.
func getString(b []byte, i int, v *string) int {
	end := quoted(b, i)
	if end >= 0 {
		*v = string(b[i+1 : end-1])
	}
	return end
}

// quoted returns the index after the string that opens at b[i] if its
// bytes are its value as they lie: no escape, no control byte, nothing
// outside ASCII (encoding/json replaces invalid UTF-8, so judging any of
// it is left to encoding/json); otherwise -1.
func quoted(b []byte, i int) int {
	if i < 0 || i >= len(b) || b[i] != '"' {
		return -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j + 1
		case c < 0x20 || c >= 0x80 || c == '\\':
			return -1
		}
	}
	return -1
}

// Names is a String that is most often one of a fixed vocabulary, such
// as an operation, a status or a metric name: a decoded string equal to
// one of names is that constant, not a copy of the line's bytes, and any
// other is copied as String copies it.  The vocabulary is fixed when
// Names is called and never grows.
func Names(names ...string) Value[string] {
	known := make(map[string]string, len(names))
	for _, n := range names {
		known[n] = n
	}
	return Value[string]{
		put: putString,
		get: func(b []byte, i int, v *string) int {
			end := quoted(b, i)
			if end < 0 {
				return -1
			}
			if s, ok := known[string(b[i+1:end-1])]; ok {
				*v = s
			} else {
				*v = string(b[i+1 : end-1])
			}
			return end
		},
		empty: String.empty,
	}
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
	n := 8 // digits read by the word below; fewer ends the run inside it
	if len(b)-i >= 8 {
		// The first eight bytes as one word: a byte's top bit in nd
		// marks it as no digit ('0'..'9' alone keeps both sums below
		// 0x80, and no carry or borrow leaves a digit), so the digits
		// before the first mark are read at once.
		w := binary.LittleEndian.Uint64(b[i:])
		nd := ((w + 0x4646464646464646) | (w - 0x3030303030303030)) & 0x8080808080808080
		if n = bits.TrailingZeros64(nd) >> 3; n > 0 {
			x = eightDigits(w<<(64-8*n) | 0x3030303030303030>>(8*n))
			i += n
		}
	}
	for ; n == 8 && i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		// Nineteen digits always fit; only a longer run can carry past.
		if i-start >= 19 && x > (math.MaxUint64-d)/10 {
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

// eightDigits is the value of the eight ASCII digits of w, the first in
// its low byte: pairs, then quads, then the whole, by three multiplies.
func eightDigits(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8
	return uint64(uint32(((w&0x000000FF000000FF)*(100+1000000<<32) + ((w>>16)&0x000000FF000000FF)*(1+10000<<32)) >> 32))
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
