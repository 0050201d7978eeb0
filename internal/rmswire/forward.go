package rmswire

import (
	"bytes"

	"gridtrust/internal/frame"
)

// Forward appends to dst the line a fleet router sends the owner of req:
// req with Forwarded set and, when key is not empty, key as its IdemKey
// (a key minted for a keyless submit).  line is the line req was read
// from when the codec's fast path took it, else nil.
//
// Such a line is copied, not re-encoded: "idem_key" goes in at its field
// position, after "eec" and before the scalar fields that follow it in
// requestCodec, and "fwd":true before the closing brace.  So a line in
// json.Marshal's form is forwarded as json.Marshal would write the
// forwarded request, byte for byte, and any other line the fast path
// took still decodes at the owner to that request.  A request without
// such a line, or whose line already names a field the splice would
// add, is encoded instead.
func Forward(dst, line []byte, req *Request, key string) ([]byte, error) {
	line = bytes.TrimRight(line, jsonSpace)
	if !spliceable(line, key) {
		fwd := *req
		fwd.Forwarded = true
		if key != "" {
			fwd.IdemKey = key
		}
		return requestCodec.Append(dst, &fwd)
	}
	end := len(line) - 1 // the closing brace
	at := end
	if key != "" {
		at = keyPosition(line, end)
	}
	dst = append(dst, line[:at]...)
	if key != "" {
		dst = append(dst, `,"idem_key":`...)
		dst = frame.AppendString(dst, key)
	}
	dst = append(dst, line[at:end]...)
	return append(dst, `,"fwd":true}`...), nil
}

// jsonSpace is the white space JSON allows between tokens.
const jsonSpace = " \t\r\n"

// The keys whose presence in a line rules the splice out.  A quote in a
// line is a string's delimiter or escaped, so these match only keys.
var (
	fwdKey  = []byte(`"fwd":`)
	idemKey = []byte(`"idem_key":`)
)

// spliceable reports whether Forward may splice line: an object with at
// least one field, naming neither field the splice would add.
func spliceable(line []byte, key string) bool {
	n := len(line)
	if n == 0 || line[n-1] != '}' {
		return false
	}
	if open := bytes.TrimRight(line[:n-1], jsonSpace); len(open) == 0 || open[len(open)-1] == '{' {
		return false
	}
	return !bytes.Contains(line, fwdKey) && (key == "" || !bytes.Contains(line, idemKey))
}

// keyPosition is where "idem_key" goes in line, a request whose closing
// brace is at p: before the first of the fields that follow it in
// requestCodec, which are all numbers, found by stepping back from the
// brace over `,"name":number` while name is one of them.  The fast path
// took line, so no string in it holds a quote, and each quote this walk
// meets is a key's own.
func keyPosition(line []byte, p int) int {
	for {
		v := p
		for v > 0 && numberByte(line[v-1]) {
			v--
		}
		if v == p || v < 2 || line[v-1] != ':' || line[v-2] != '"' {
			return p
		}
		k := bytes.LastIndexByte(line[:v-2], '"')
		if k < 1 || line[k-1] != ',' || !afterKey(line[k+1:v-2]) {
			return p
		}
		p = k - 1
	}
}

// afterKey reports whether name is a field requestCodec writes after
// "idem_key" and that can carry a number.
func afterKey(name []byte) bool {
	switch string(name) {
	case "budget_ms", "placement_id", "outcome", "now":
		return true
	}
	return false
}

func numberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}
