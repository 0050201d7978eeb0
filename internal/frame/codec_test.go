package frame

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"gridtrust/internal/testutil"
)

// The kitchen types give every Value and combinator a field, with and
// without omitempty, so the engine is held to encoding/json apart from
// the protocols' tables (which have their own oracle tests).
type inner struct {
	A int    `json:"a"`
	S string `json:"s,omitempty"`
}

type promoted struct {
	Seq   uint64            `json:"seq"`
	Count map[string]uint64 `json:"count"`
}

type cold struct {
	Names []string `json:"names"`
	X     float64  `json:"x"`
}

type kitchen struct {
	Str    string  `json:"str"`
	StrO   string  `json:"str_o,omitempty"`
	Num    int     `json:"num"`
	NumO   int     `json:"num_o,omitempty"`
	I64    int64   `json:"i64"`
	I64O   int64   `json:"i64_o,omitempty"`
	U64    uint64  `json:"u64"`
	U64O   uint64  `json:"u64_o,omitempty"`
	Flt    float64 `json:"flt"`
	FltO   float64 `json:"flt_o,omitempty"`
	Flag   bool    `json:"flag"`
	FlagO  bool    `json:"flag_o,omitempty"`
	Ints   []int   `json:"ints"`
	IntsO  []int   `json:"ints_o,omitempty"`
	Flts   []float64
	Obj    *inner  `json:"obj"`
	ObjO   *inner  `json:"obj_o,omitempty"`
	List   []inner `json:"list"`
	ListO  []inner `json:"list_o,omitempty"`
	Plain  inner   `json:"plain"`
	Cold   *cold   `json:"cold"`
	ColdO  *cold   `json:"cold_o,omitempty"`
	Signed map[string]int64
	promoted
	Objs  map[string]*inner `json:"objs,omitempty"`
	After string            `json:"after"`
}

var (
	innerCodec = NewCodec(
		Of("a", Int, func(v *inner) *int { return &v.A }),
		Of("s,omitempty", String, func(v *inner) *string { return &v.S }),
	)
	kitchenCodec = NewCodec(
		Of("str", String, func(k *kitchen) *string { return &k.Str }),
		Of("str_o,omitempty", String, func(k *kitchen) *string { return &k.StrO }),
		Of("num", Int, func(k *kitchen) *int { return &k.Num }),
		Of("num_o,omitempty", Int, func(k *kitchen) *int { return &k.NumO }),
		Of("i64", Int64, func(k *kitchen) *int64 { return &k.I64 }),
		Of("i64_o,omitempty", Int64, func(k *kitchen) *int64 { return &k.I64O }),
		Of("u64", Uint64, func(k *kitchen) *uint64 { return &k.U64 }),
		Of("u64_o,omitempty", Uint64, func(k *kitchen) *uint64 { return &k.U64O }),
		Of("flt", Float64, func(k *kitchen) *float64 { return &k.Flt }),
		Of("flt_o,omitempty", Float64, func(k *kitchen) *float64 { return &k.FltO }),
		Of("flag", Bool, func(k *kitchen) *bool { return &k.Flag }),
		Of("flag_o,omitempty", Bool, func(k *kitchen) *bool { return &k.FlagO }),
		Of("ints", Slice(Int), func(k *kitchen) *[]int { return &k.Ints }),
		Of("ints_o,omitempty", Slice(Int), func(k *kitchen) *[]int { return &k.IntsO }),
		Of("Flts", Slice(Float64), func(k *kitchen) *[]float64 { return &k.Flts }),
		Of("obj", Ptr(innerCodec.Value()), func(k *kitchen) **inner { return &k.Obj }),
		Of("obj_o,omitempty", Ptr(innerCodec.Value()), func(k *kitchen) **inner { return &k.ObjO }),
		Of("list", Slice(innerCodec.Value()), func(k *kitchen) *[]inner { return &k.List }),
		Of("list_o,omitempty", Slice(innerCodec.Value()), func(k *kitchen) *[]inner { return &k.ListO }),
		Of("plain", innerCodec.Value(), func(k *kitchen) *inner { return &k.Plain }),
		Of("cold", Cold[cold](), func(k *kitchen) **cold { return &k.Cold }),
		Of("cold_o,omitempty", Cold[cold](), func(k *kitchen) **cold { return &k.ColdO }),
		Of("Signed", Map(String, Int64), func(k *kitchen) *map[string]int64 { return &k.Signed }),
		Of("seq", Uint64, func(k *kitchen) *uint64 { return &k.Seq }),
		Of("count", Map(String, Uint64), func(k *kitchen) *map[string]uint64 { return &k.Count }),
		Of("objs,omitempty", Map(String, Ptr(innerCodec.Value())), func(k *kitchen) *map[string]*inner { return &k.Objs }),
		Of("after", String, func(k *kitchen) *string { return &k.After }),
	)
)

func TestCodecMatchesJSON(t *testing.T) {
	testutil.CodecMatchesJSON[kitchen](t, kitchenCodec, 20000)
	testutil.CodecMatchesJSON[inner](t, innerCodec, 2000)
	lines := append(testutil.CodecFuzzSeeds("str", "num", "flt"),
		// White space inside arrays, and repeated keys inside maps (the
		// last one wins, whole).
		[]byte(`{"ints":[1, 2 ,3],"Flts":[],"list":[{"a":1},{"a":2,"s":"y"}],"count":{"a":1,"a":2},"objs":{"k":{"a":1},"k":{"s":"z"}}}`),
		// Arrays of objects whose strings hold an array's punctuation,
		// after and before a flat array of the same.
		[]byte(`{"list":[{"a":1,"s":"x]y"},{"a":-0,"s":"{,}"},{"a":9223372036854775807,"s":"]"}],"ints":[1,2]}`),
		[]byte(`{"ints":[1,2],"list":[{"a":1,"s":","}],"Flts":[1,[2]]}`))
	lines = append(lines, testutil.CodecIntegerSeeds("num", "u64", "ints")...)
	lines = append(lines, testutil.CodecIntegerSeeds("i64", "u64_o", "ints_o")...)
	for _, line := range lines {
		testutil.CodecParsesLikeJSON[kitchen](t, kitchenCodec, line)
	}
}

// TestCodecDecodesCanonicalFormItself guards the point of the codec: a
// line json.Marshal could have written, with no string that needs an
// escape and no cold sub-object, never reaches json.Unmarshal.  The
// oracle tests cannot see this — the fallback is always right.
func TestCodecDecodesCanonicalFormItself(t *testing.T) {
	v := kitchen{
		Str: "plain", Num: -3, I64: -1 << 63, I64O: 1<<63 - 1, U64: 1<<64 - 1, Flt: 1e-9, FltO: 1e21, FlagO: true,
		Ints: []int{}, IntsO: []int{1, -2, 3}, Flts: []float64{0.5, 1e100, 2},
		Obj: &inner{A: 1, S: "s"}, List: []inner{{A: 1}, {A: 2, S: "two"}}, ListO: []inner{{}},
		Signed:   map[string]int64{"b": -1, "a": 1},
		promoted: promoted{Seq: 9, Count: map[string]uint64{}},
		Objs:     map[string]*inner{"k": {A: 7}},
		After:    "end",
	}
	line, err := json.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	// Cold is nil and not omitempty, so it is written as null, which is
	// encoding/json's to read; this line leaves it out.
	line = bytes.Replace(line, []byte(`"cold":null,`), nil, 1)
	var got kitchen
	if end := kitchenCodec.get(line, 0, &got); end != len(line) {
		t.Fatalf("the table decoder gave up on %s (returned %d)", line, end)
	}
	testutil.CodecParsesLikeJSON[kitchen](t, kitchenCodec, line)

	for _, suspect := range []string{
		`{"str":"x","Num":1}`, `{"str":"x","str":"y"}`, `{"str":null}`, `{"str":"a\tb"}`,
		`{"str":"é"}`, `{"num":1.0}`, `{"num":1e3}`, `{"u64":-0}`, `{"num":01}`,
		`{"flt":1e999}`, `{"cold":{"names":null,"x":0}}`, `{"str":"x"} x`, `[]`, `null`,
		`{"num":9223372036854775808}`, `{"str" :"x"}`, `{"u64":18446744073709551616}`, `{"i64":-9223372036854775809}`,
		`{"u64":-1}`, `{"num":- 1}`, `{"ints":[1,01]}`,
	} {
		if end := kitchenCodec.get([]byte(suspect), 0, &got); end >= 0 && skipSpace([]byte(suspect), end) == len(suspect) {
			t.Errorf("the table decoder kept %s, which only encoding/json may judge", suspect)
		}
	}
}

func TestWriteBoundsTheFrame(t *testing.T) {
	var sink bytes.Buffer
	fits := ping{Pad: strings.Repeat("x", MaxBytes-len(`{"n":0,"pad":""}`))}
	if err := Write(&sink, pingCodec.Frame(&fits)); err != nil || sink.Len() != MaxBytes+1 {
		t.Fatalf("a frame of exactly MaxBytes: wrote %d bytes, err %v", sink.Len(), err)
	}
	sink.Reset()
	fits.Pad += "x"
	if err := Write(&sink, pingCodec.Frame(&fits)); !errors.Is(err, ErrTooLarge) || sink.Len() != 0 {
		t.Fatalf("a frame one byte over: wrote %d bytes, err %v; want ErrTooLarge and nothing written", sink.Len(), err)
	}
}

// The nest types hold the shapes an array's sizing has to guess at:
// arrays of flat objects, of objects that hold arrays, and of arrays, and
// a map of objects under a vocabulary of keys.
type row struct {
	Ints []int  `json:"ints,omitempty"`
	S    string `json:"s,omitempty"`
	N    uint64 `json:"n"`
}

type nest struct {
	Rows   []row           `json:"rows"`
	ByName map[string]*row `json:"by_name,omitempty"`
	Grid   [][]int         `json:"grid"`
	Lists  [][]row         `json:"lists,omitempty"`
	After  int64           `json:"after"`
}

var (
	rowCodec = NewCodec(
		Of("ints,omitempty", Slice(Int), func(r *row) *[]int { return &r.Ints }),
		Of("s,omitempty", String, func(r *row) *string { return &r.S }),
		Of("n", Uint64, func(r *row) *uint64 { return &r.N }),
	)
	nestCodec = NewCodec(
		Of("rows", Slice(rowCodec.Value()), func(n *nest) *[]row { return &n.Rows }),
		Of("by_name,omitempty", Map(Names("a", "b", "ok"), Ptr(rowCodec.Value())), func(n *nest) *map[string]*row { return &n.ByName }),
		Of("grid", Slice(Slice(Int)), func(n *nest) *[][]int { return &n.Grid }),
		Of("lists,omitempty", Slice(Slice(rowCodec.Value())), func(n *nest) *[][]row { return &n.Lists }),
		Of("after", Int64, func(n *nest) *int64 { return &n.After }),
	)
)

// nestSeeds are lines whose arrays hold what count and entries do not
// read: strings holding braces, brackets and commas, empty objects,
// objects that hold arrays, arrays of arrays, and punctuation that is
// not JSON's.
func nestSeeds() [][]byte {
	var out [][]byte
	for _, l := range []string{
		`{"rows":[{"s":"{","n":1},{"s":"}","n":2},{"s":"]","n":3},{"s":",","n":4}],"after":1}`,
		`{"rows":[{"s":"}}}","n":1},{"n":2}],"grid":[[1]]}`,
		`{"rows":[{"s":"{{{","n":1},{"n":2}],"grid":[]}`,
		`{"rows":[{"s":"[","n":1},{"s":"[]","n":2}],"after":-1}`,
		`{"rows":[{},{},{}],"grid":[[],[]]}`,
		`{"rows":[{}],"grid":null}`,
		`{"rows":[],"grid":[],"after":0}`,
		`{"rows":[ {} , {"n":1} ],"grid":[ [ 1 , 2 ] , [ ] ]}`,
		`{"rows":[{"ints":[1,2],"n":1},{"ints":[],"n":2},{"n":3}],"after":2}`,
		`{"rows":[{"ints":[1,2],"s":"]","n":1},{"ints":[3],"s":"[","n":2}]}`,
		`{"grid":[[1,2],[3],[]],"rows":[{"n":1}]}`,
		`{"lists":[[{"n":1}],[{"n":2},{"n":3}],[]],"grid":[[0]]}`,
		`{"lists":[[{"ints":[1],"s":"},{","n":1}],[{}]]}`,
		`{"by_name":{"a":{"n":1},"b":{"ints":[1],"n":2},"zz":{"s":"}","n":3}},"rows":[{"n":1}]}`,
		`{"by_name":{"a,}":{"n":1},"ok":{}},"after":3}`,
		`{"by_name":{"a":null}}`,
		`{"rows":[{"n":1},2]}`,
		`{"rows":[{"n":1}],"grid":[[1,"]"]]}`,
		`{"rows":[{"n":1},]}`,
		`{"rows":[{"n":1}`,
		`{"grid":[[1,2],[3}`,
		`{"by_name":{"a":{"n":1},}}`,
		`{"by_name":{"a":{"n":1}`,
	} {
		out = append(out, []byte(l))
	}
	return out
}

// TestArraySizingMatchesJSON holds the decoder to encoding/json where an
// array or a map is sized by a guess that does not read strings: a wrong
// guess may only cost capacity.
func TestArraySizingMatchesJSON(t *testing.T) {
	testutil.CodecMatchesJSON[nest](t, nestCodec, 5000)
	for _, line := range nestSeeds() {
		testutil.CodecParsesLikeJSON[nest](t, nestCodec, line)
	}
}

// FuzzCodecParsesLikeJSON reads arbitrary bytes as a nest and requires
// json.Unmarshal's verdict and value.
func FuzzCodecParsesLikeJSON(f *testing.F) {
	for _, line := range append(nestSeeds(), testutil.CodecSamples[nest](50)...) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		testutil.CodecParsesLikeJSON[nest](t, nestCodec, line)
	})
}

// TestFlatObjectArrayAllocatesOnce: an array of flat objects is sized by
// one count of its braces, so its slice is allocated once, at its length.
func TestFlatObjectArrayAllocatesOnce(t *testing.T) {
	const n = 150
	line := []byte("[" + strings.Repeat(`{"n":12345678},`, n-1) + `{"n":1}]`)
	get := Slice(rowCodec.Value()).get
	var rows []row
	if end := get(line, 0, &rows); end != len(line) || len(rows) != n || cap(rows) != n {
		t.Fatalf("decoded %d rows in a slice of capacity %d, up to %d of %d bytes", len(rows), cap(rows), end, len(line))
	}
	if got := testing.AllocsPerRun(100, func() { get(line, 0, &rows) }); got != 1 {
		t.Fatalf("an array of %d flat objects allocates %v times, want 1", n, got)
	}
}

// TestNamesReturnsTheConstant: a name in the vocabulary decodes without
// an allocation, and any other name is copied.
func TestNamesReturnsTheConstant(t *testing.T) {
	names := Names("ok", "overloaded")
	var s string
	for _, c := range []struct {
		line   string
		allocs float64
	}{{`"ok"`, 0}, {`"overloaded"`, 0}, {`"okay"`, 1}, {`"o"`, 0}} {
		line := []byte(c.line)
		if end := names.get(line, 0, &s); end != len(line) || s != c.line[1:len(c.line)-1] {
			t.Fatalf("%s decoded to %q, up to %d", line, s, end)
		}
		if got := testing.AllocsPerRun(100, func() { names.get(line, 0, &s) }); got != c.allocs {
			t.Errorf("decoding %s allocates %v times, want %v", line, got, c.allocs)
		}
	}
	for _, bad := range []string{`"o\"k"`, `"ok`, `ok`, "\"o\x01k\"", "\"\xc3\xa9\""} {
		if end := names.get([]byte(bad), 0, &s); end >= 0 {
			t.Errorf("%s was taken (up to %d); only encoding/json may judge it", bad, end)
		}
	}
}

// TestIntegerMatchesStrconv reads every digit count from 1 to 21 behind
// each byte value, at offsets that put the run's end on and across the
// eight-byte word the decoder reads first: the value and the end must
// be strconv's, and what the grammar leaves to encoding/json a refusal.
func TestIntegerMatchesStrconv(t *testing.T) {
	const digits = "98765432109876543210123"
	for n := 1; n <= 21; n++ {
		for _, lead := range []string{digits[:n], "1" + strings.Repeat("0", n-1), strings.Repeat("9", n), "0" + digits[1:n]} {
			for c := 0; c < 256; c++ {
				for _, pad := range []string{"", "[", "[1,"} {
					line := []byte(pad + lead + string(rune(0)) + "12345678")
					line[len(pad)+len(lead)] = byte(c)
					got, end := integer(line, len(pad))
					run := lead
					if c >= '0' && c <= '9' {
						run = lead + string(rune(c)) + "12345678"
					}
					want, err := strconv.ParseUint(run, 10, 64)
					wantEnd := len(pad) + len(run)
					if err != nil || len(run) > 1 && run[0] == '0' || c == '.' || c == 'e' || c == 'E' {
						want, wantEnd = 0, -1
					}
					if got != want || end != wantEnd {
						t.Fatalf("integer(%q) = %d, %d; want %d, %d", line, got, end, want, wantEnd)
					}
				}
			}
		}
	}
}
