package rmswire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"gridtrust/internal/testutil"
)

// FuzzForwardSplice holds Forward to its definition: for any request the
// codec reads, and for a minted key and none, the line spliced from the
// request's json.Marshal form is json.Marshal of the forwarded request
// byte for byte, as is the encoding Forward falls back to without a
// line; and the line spliced from the bytes as the client sent them
// decodes at the owner, by the codec as by encoding/json, to that
// request.
func FuzzForwardSplice(f *testing.F) {
	for _, line := range forwardSeeds() {
		f.Add(line, "")
		f.Add(line, "fwd-s1-1790000000000000000-7")
	}
	f.Add(sampleLine(f), `fwd-"s<1>"-1-2`)
	f.Fuzz(func(t *testing.T, line []byte, key string) {
		var req Request
		if requestCodec.Parse(line, &req) != nil {
			return
		}
		canonical, err := requestCodec.Append(nil, &req)
		if err != nil {
			return
		}
		if req.IdemKey != "" {
			key = "" // a router mints a key only for a keyless submit
		}
		fwd := req
		fwd.Forwarded = true
		if key != "" {
			fwd.IdemKey = key
		}
		want, err := json.Marshal(&fwd)
		if err != nil {
			t.Fatal(err)
		}
		for _, from := range [][]byte{canonical, nil} {
			got, err := Forward(nil, from, &req, key)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Forward(%q, key %q) = %q, %v\n want json.Marshal %q", from, key, got, err, want)
			}
		}
		got, err := Forward(nil, line, &req, key)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CodecParsesLikeJSON[Request](t, requestCodec, got)
		var owner, wantReq Request
		if err := requestCodec.Parse(got, &owner); err != nil {
			t.Fatalf("Forward(%q, key %q) = %q, which the owner cannot read: %v", line, key, got, err)
		}
		_ = json.Unmarshal(want, &wantReq)
		if !reflect.DeepEqual(owner, wantReq) {
			t.Fatalf("Forward(%q, key %q) = %q\n the owner reads %+v\n want %+v", line, key, got, owner, wantReq)
		}
	})
}

// forwardSeeds are random requests in json.Marshal's form, the codec's
// hard lines, and lines a client could send that are not that form:
// spaced, reordered, naming an empty idem_key or a false fwd, or a key
// only encoding/json would match.
func forwardSeeds() [][]byte {
	seeds := append(testutil.CodecSamples[Request](200), testutil.CodecFuzzSeeds("op", "client", "now")...)
	for _, v := range codecSamples() {
		if req, ok := v.(*Request); ok {
			line, _ := json.Marshal(req)
			seeds = append(seeds, line)
		}
	}
	for _, line := range []string{
		`{"op":"submit","client":1,"activities":[0],"rtl":"C","eec":[1,2.5],"now":3}`,
		`{"op":"submit","client":1,"eec":[1,2.5],"budget_ms":40,"now":3}`,
		`{"op":"report","placement_id":281474976710657,"outcome":5,"now":1e-7}`,
		`{"op":"report","placement_id":1,"outcome":5,"now":1}` + " \r\n",
		`{ "op" : "submit", "client": 1, "now": 3 }`,
		`{"now":3,"op":"submit","budget_ms":5,"client":1}`,
		`{"op":"submit","idem_key":"","now":3}`,
		`{"op":"submit","now":3,"fwd":false}`,
		`{"op":"submit","now":3,"FWD":false,"Idem_Key":""}`,
		`{"op":"submit","rtl":"a\",\"now\":5","now":6}`,
		`{"op":"submit","unknown":{"now":1,"fwd":true},"now":2}`,
		`{"op":"submit","now":3,"now":4}`,
		`{"op":"submit","now":null}`,
	} {
		seeds = append(seeds, []byte(line))
	}
	return seeds
}

func sampleLine(tb testing.TB) []byte {
	line, err := json.Marshal(Request{Op: OpSubmit, Client: 3, RTL: "C", EEC: []float64{1, 2}, Now: 9})
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

// TestForwardSplicesAtFieldPosition pins where the splice puts the two
// fields in the lines a fleet forwards: the minted key between "eec"
// and the scalars after it, "fwd" last, with no field moved.
func TestForwardSplicesAtFieldPosition(t *testing.T) {
	const key = "fwd-s0-17-3"
	for _, tc := range []struct{ line, key, want string }{
		{`{"op":"submit","client":3,"activities":[0,2],"rtl":"C","eec":[101.5,97.25],"now":1234.5}`, key,
			`{"op":"submit","client":3,"activities":[0,2],"rtl":"C","eec":[101.5,97.25],"idem_key":"fwd-s0-17-3","now":1234.5,"fwd":true}`},
		{`{"op":"submit","client":3,"rtl":"C","eec":[1],"budget_ms":250,"now":2}`, key,
			`{"op":"submit","client":3,"rtl":"C","eec":[1],"idem_key":"fwd-s0-17-3","budget_ms":250,"now":2,"fwd":true}`},
		{`{"op":"submit","client":3,"rtl":"C","eec":[1]}`, key,
			`{"op":"submit","client":3,"rtl":"C","eec":[1],"idem_key":"fwd-s0-17-3","fwd":true}`},
		{`{"op":"submit","client":3,"rtl":"C","eec":[1],"idem_key":"w1-9","now":2}`, "",
			`{"op":"submit","client":3,"rtl":"C","eec":[1],"idem_key":"w1-9","now":2,"fwd":true}`},
		{`{"op":"report","placement_id":281474976710657,"outcome":5,"now":7}`, "",
			`{"op":"report","placement_id":281474976710657,"outcome":5,"now":7,"fwd":true}`},
	} {
		var req Request
		if err := requestCodec.Parse([]byte(tc.line), &req); err != nil {
			t.Fatal(err)
		}
		got, err := Forward([]byte("kept "), []byte(tc.line), &req, tc.key)
		if err != nil || string(got) != "kept "+tc.want {
			t.Errorf("Forward(%s, %q) = %s, %v\n want kept %s", tc.line, tc.key, got, err, tc.want)
		}
	}
}

// TestForwardAllocatesNothing: splicing into a buffer that has room
// costs no allocation, minted key or not.
func TestForwardAllocatesNothing(t *testing.T) {
	keyless := sampleSubmit
	keyless.IdemKey = ""
	line, err := json.Marshal(&keyless)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := requestCodec.Parse(line, &req); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	for _, key := range []string{"", "fwd-s0-17-3"} {
		if got := testing.AllocsPerRun(200, func() { buf, _ = Forward(buf[:0], line, &req, key) }); got != 0 {
			t.Errorf("Forward with key %q allocates %v times, want 0", key, got)
		}
	}
}

// BenchmarkForward times the line a keyless forwarded submit sends its
// owner, spliced from the client's line beside encoded from the decoded
// request (what a line the fast path did not take still costs).
func BenchmarkForward(b *testing.B) {
	keyless := sampleSubmit
	keyless.IdemKey = ""
	line, err := json.Marshal(&keyless)
	if err != nil {
		b.Fatal(err)
	}
	var req Request
	if err := requestCodec.Parse(line, &req); err != nil {
		b.Fatal(err)
	}
	const key = "fwd-s0-1790000000000000000-12345"
	for _, bc := range []struct {
		name string
		line []byte
	}{{"splice", line}, {"encode", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				buf, _ = Forward(buf[:0], bc.line, &req, key)
			}
		})
	}
}
