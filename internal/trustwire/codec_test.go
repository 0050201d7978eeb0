package trustwire

import (
	"testing"

	"gridtrust/internal/testutil"
)

// TestCodecMatchesJSON holds the tables in protocol.go to the struct tags
// they restate (see internal/testutil/codec.go).
func TestCodecMatchesJSON(t *testing.T) {
	testutil.CodecMatchesJSON[Request](t, requestCodec, 2000)
	testutil.CodecMatchesJSON[Response](t, responseCodec, 5000)
	testutil.CodecMatchesJSON[Entry](t, entryCodec, 2000)
	for _, line := range codecSeeds() {
		parseLikeJSON(t, line)
	}
}

// FuzzCodecMatchesJSON reads arbitrary bytes as a sync reply and as a
// poll and requires json.Unmarshal's verdict and value.
func FuzzCodecMatchesJSON(f *testing.F) {
	for _, line := range codecSeeds() {
		f.Add(line)
	}
	f.Fuzz(parseLikeJSON)
}

func parseLikeJSON(t *testing.T, line []byte) {
	testutil.CodecParsesLikeJSON[Response](t, responseCodec, line)
	testutil.CodecParsesLikeJSON[Request](t, requestCodec, line)
}

func codecSeeds() [][]byte {
	return append(testutil.CodecFuzzSeeds("status", "version", "version"),
		[]byte(`{"op":"sync","have_version":3}`),
		[]byte(`{"status":"delta","version":36,"entries":[{"cd":0,"rd":1,"activity":0,"level":"B"}]}`),
		[]byte(`{"status":"snapshot","version":2,"entries":[{"cd":0,"rd":0,"activity":0,"level":"C"}, {"cd":1,"rd":0,"activity":4,"level":"E"},null]}`),
		[]byte(`{"status":"current","version":36,"entries":[]}`),
		[]byte(`{"status":"error","version":0,"error":"unknown op \"explode\""}`))
}
