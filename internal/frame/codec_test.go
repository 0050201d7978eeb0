package frame

import (
	"bytes"
	"encoding/json"
	"errors"
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
		Of("Signed", Map(Int64), func(k *kitchen) *map[string]int64 { return &k.Signed }),
		Of("seq", Uint64, func(k *kitchen) *uint64 { return &k.Seq }),
		Of("count", Map(Uint64), func(k *kitchen) *map[string]uint64 { return &k.Count }),
		Of("objs,omitempty", Map(Ptr(innerCodec.Value())), func(k *kitchen) *map[string]*inner { return &k.Objs }),
		Of("after", String, func(k *kitchen) *string { return &k.After }),
	)
)

func TestCodecMatchesJSON(t *testing.T) {
	testutil.CodecMatchesJSON[kitchen](t, kitchenCodec, 20000)
	testutil.CodecMatchesJSON[inner](t, innerCodec, 2000)
	lines := append(testutil.CodecFuzzSeeds("str", "num", "flt"),
		// White space inside arrays, and repeated keys inside maps (the
		// last one wins, whole).
		[]byte(`{"ints":[1, 2 ,3],"Flts":[],"list":[{"a":1},{"a":2,"s":"y"}],"count":{"a":1,"a":2},"objs":{"k":{"a":1},"k":{"s":"z"}}}`))
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
		Str: "plain", Num: -3, I64O: 1 << 40, U64: 1<<64 - 1, Flt: 1e-9, FltO: 1e21, FlagO: true,
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
		`{"num":9223372036854775808}`, `{"str" :"x"}`,
	} {
		if end := kitchenCodec.get([]byte(suspect), 0, &got); end >= 0 && skipSpace([]byte(suspect), end) == len(suspect) {
			t.Errorf("the table decoder kept %s, which only encoding/json may judge", suspect)
		}
	}
}

func TestWriteBoundsTheFrame(t *testing.T) {
	var sink bytes.Buffer
	fits := ping{Pad: strings.Repeat("x", MaxBytes-len(`{"n":0,"pad":""}`))}
	w := Writer{W: &sink}
	if err := w.Write(pingCodec.Frame(&fits)); err != nil || sink.Len() != MaxBytes+1 {
		t.Fatalf("a frame of exactly MaxBytes: wrote %d bytes, err %v", sink.Len(), err)
	}
	sink.Reset()
	fits.Pad += "x"
	if err := w.Write(pingCodec.Frame(&fits)); !errors.Is(err, ErrTooLarge) || sink.Len() != 0 {
		t.Fatalf("a frame one byte over: wrote %d bytes, err %v; want ErrTooLarge and nothing written", sink.Len(), err)
	}
}
