package testutil

// codec.go is the oracle for internal/frame's codecs: encoding/json is
// the definition of the wire and journal formats, so a codec is right
// exactly when it cannot be told apart from json.Marshal and
// json.Unmarshal.  The checks are generic over the value type and take
// the codec as an interface, so frame's own tests can use them too.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Codec is the part of a frame.Codec[T] the oracle drives.
type Codec[T any] interface {
	Append(dst []byte, v *T) ([]byte, error)
	Parse(line []byte, v *T) error
}

// CodecMatchesJSON draws n random values of T — every string, number,
// slice, map and pointer shape encoding/json treats specially among them
// — and requires Append to equal json.Marshal byte for byte (or fail
// with its error), and Parse of those bytes to equal json.Unmarshal.
func CodecMatchesJSON[T any](t *testing.T, c Codec[T], n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(24))
	prefix := []byte("prefix ")
	for i := 0; i < n; i++ {
		var v T
		fill(rng, reflect.ValueOf(&v).Elem())
		want, werr := json.Marshal(&v)
		got, gerr := c.Append(append([]byte(nil), prefix...), &v)
		if werr != nil || gerr != nil {
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				t.Fatalf("value %d %+v:\n json.Marshal error %v\n codec error      %v", i, v, werr, gerr)
			}
			continue
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("value %d:\n json.Marshal %s\n codec        %s", i, want, got)
		}
		CodecParsesLikeJSON(t, c, want)
	}
}

// CodecSamples returns json.Marshal of n random values of T, drawn as
// CodecMatchesJSON draws them, leaving out those it cannot encode: the
// lines a fuzz target over T's wire form starts from.
func CodecSamples[T any](n int) [][]byte {
	rng := rand.New(rand.NewSource(25))
	var out [][]byte
	for i := 0; i < n; i++ {
		var v T
		fill(rng, reflect.ValueOf(&v).Elem())
		if line, err := json.Marshal(&v); err == nil {
			out = append(out, line)
		}
	}
	return out
}

// CodecParsesLikeJSON requires Parse to give line the verdict
// json.Unmarshal gives it into a zero value: the same error text, the
// same value down to nil against empty and the sign of a zero.
func CodecParsesLikeJSON[T any](t *testing.T, c Codec[T], line []byte) {
	t.Helper()
	var want, got T
	werr := json.Unmarshal(line, &want)
	gerr := c.Parse(line, &got)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("line %q:\n json.Unmarshal error %v\n codec error          %v", line, werr, gerr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("line %q:\n json.Unmarshal %+v\n codec          %+v", line, want, got)
	}
	// DeepEqual calls -0 and 0 equal; their encodings differ.
	a, _ := json.Marshal(&want)
	b, _ := json.Marshal(&got)
	if !bytes.Equal(a, b) {
		t.Fatalf("line %q:\n json.Unmarshal re-encodes as %s\n codec as                    %s", line, a, b)
	}
}

// CodecFuzzSeeds are lines on which a hand-written decoder and
// encoding/json are most likely to part, phrased for an object with a
// string field str, an integer field num and a float field flt; a fuzz
// target substitutes its own type's field names.
func CodecFuzzSeeds(str, num, flt string) [][]byte {
	lines := []string{
		`{"` + str + `":"x","` + num + `":3,"` + flt + `":2.5}`,
		`{"` + caseVariant(str) + `":"folded"}`,
		`{"` + str + `":null,"` + num + `":null}`,
		`{"` + num + `":1,"` + num + `":2}`,
		`{"` + str + `":"x"} trailing`,
		`{"` + str + `":"x"}{}`,
		`{"` + num + `":1.0}`,
		`{"` + num + `":1e3}`,
		`{"` + num + `":-0,"` + flt + `":-0}`,
		`{"` + num + `":01}`,
		`{"` + num + `":-}`,
		`{"` + num + `":18446744073709551616}`,
		`{"` + num + `":-9223372036854775809}`,
		`{"\u00` + hex2(str[0]) + str[1:] + `":"escaped key"}`,
		`{"` + flt + `":1e999}`,
		`{"` + flt + `":1e-999}`,
		`{"` + flt + `":.5}`,
		`{"` + flt + `":5.}`,
		`{"` + str + `":"tab\there \u00e9 <>&"}`,
		"{\"" + str + "\":\"raw\tcontrol\"}",
		"{\"" + str + "\":\"h\xc3\xa9llo \xff\"}",
		`{"` + str + `" : "space before colon" , "` + num + `" :	7 }`,
		`{"unknown":{"nested":[1,2,{"deep":null}]},"` + str + `":"x"}`,
		` {} `,
		`null`,
		`[]`,
		`{`,
		``,
	}
	out := make([][]byte, len(lines))
	for i, l := range lines {
		out[i] = []byte(l)
	}
	return out
}

// CodecIntegerSeeds are the lines that hold a decoder's own integer
// reading and array sizing to encoding/json, phrased for an object with
// a signed integer field, an unsigned one and an array of integers list:
// each edge of int64 and uint64 and one past it, the forms only
// encoding/json may judge, and arrays whose brackets, commas and braces
// are not all the array's own.
func CodecIntegerSeeds(signed, unsigned, list string) [][]byte {
	var out [][]byte
	for _, v := range []string{
		"0", "-0", "01", "-01", "1e3", "1E3", "1.0", "- 1", "-", "+1", "--1", "0x1",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "99999999999999999999",
	} {
		for _, f := range []string{signed, unsigned} {
			out = append(out, []byte(`{"`+f+`":`+v+`}`))
		}
		out = append(out, []byte(`{"`+list+`":[1,`+v+`,3]}`))
	}
	for _, a := range []string{
		`[]`, `[ ]`, `[1]`, `[1,2,3]`, `[ 1 , 2 ]`, `[1,[2,3],4]`, `[[],[]]`, `[{"a":1},2]`, `[1,{"a":[1,2]}]`,
		`["]",1]`, `[1,"a,b",2]`, `["{",3]`, `["}",4]`, `[1,2`, `[1,2,]`, `[,1]`,
	} {
		out = append(out, []byte(`{"`+list+`":`+a+`}`), []byte(`{"`+list+`":`+a+`,"`+signed+`":"a],b{c"}`))
	}
	return out
}

func caseVariant(s string) string {
	b := []byte(s)
	b[0] ^= 0x20
	return string(b)
}

func hex2(c byte) string {
	const digits = "0123456789abcdef"
	return string([]byte{digits[c>>4], digits[c&0xf]})
}

var (
	nastyStrings = []string{
		"", "", "ok", "submit", "C", "w3-17", "a b", "<>&", `q"uote`, "tab\there", `back\slash`,
		"new\nline", "h\u00e9llo", "\u2028", "\xff\xfe", "\x00", "\x7f", "caf\xc3", "日本",
		"a long string, long enough to make the encoder grow the buffer it was handed at least once",
	}
	nastyInts = []int64{
		0, 0, 1, -1, 7, 42, -42, 1 << 31, -1 << 31, 1<<53 + 1, math.MaxInt64, math.MinInt64,
	}
	nastyUints  = []uint64{0, 0, 1, 9, 10, 1 << 48, 1<<63 - 1, 1 << 63, math.MaxUint64}
	nastyFloats = []float64{
		0, 0, math.Copysign(0, -1), 1, -1, 100, 5.5, 123456.789, 0.1, 1.0 / 3,
		1e-6, 9.99999e-7, 1e-7, 1e-9, 1.5e-10, 1e-100, 1e20, 9.99e20, 1e21, 1.5e21, 1e100,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 1 << 53, 1<<53 + 2,
	}
)

// fill sets v to a random value of its type.
func fill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		if rng.Intn(3) == 0 {
			b := make([]byte, rng.Intn(12))
			for i := range b {
				b[i] = byte(0x20 + rng.Intn(0x5f))
			}
			v.SetString(string(b))
		} else {
			v.SetString(nastyStrings[rng.Intn(len(nastyStrings))])
		}
	case reflect.Int, reflect.Int64:
		if rng.Intn(2) == 0 {
			v.SetInt(rng.Int63n(2000) - 1000)
		} else {
			v.SetInt(nastyInts[rng.Intn(len(nastyInts))])
		}
	case reflect.Uint64:
		if rng.Intn(2) == 0 {
			v.SetUint(rng.Uint64() >> uint(rng.Intn(64)))
		} else {
			v.SetUint(nastyUints[rng.Intn(len(nastyUints))])
		}
	case reflect.Float64:
		switch k := rng.Intn(400); {
		case k == 0:
			v.SetFloat(math.NaN())
		case k == 1:
			v.SetFloat(math.Inf(1 - 2*rng.Intn(2)))
		case k < 100:
			v.SetFloat(math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52))
		case k < 200:
			v.SetFloat(rng.NormFloat64() * 1000)
		default:
			v.SetFloat(nastyFloats[rng.Intn(len(nastyFloats))])
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Pointer:
		if rng.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(rng, v.Elem())
		}
	case reflect.Slice:
		if k := rng.Intn(4); k > 0 {
			v.Set(reflect.MakeSlice(v.Type(), (k-1)*(1+rng.Intn(3)), 8))
			for i := 0; i < v.Len(); i++ {
				fill(rng, v.Index(i))
			}
		}
	case reflect.Map:
		if k := rng.Intn(4); k > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for i := (k - 1) * (1 + rng.Intn(4)); i > 0; i-- {
				key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(rng, key)
				fill(rng, elem)
				v.SetMapIndex(key, elem)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(rng, v.Field(i))
		}
	default:
		panic("testutil: no random " + v.Kind().String())
	}
}
