package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gridtrust/internal/rng"
)

func TestWorkloadSaveLoadRoundTrip(t *testing.T) {
	spec := PaperSpec(25, Consistent)
	spec.DeadlineSlack = 3
	orig, err := NewWorkload(rng.New(77), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Spec != orig.Spec {
		t.Fatalf("spec differs:\n%+v\n%+v", back.Spec, orig.Spec)
	}
	if back.NumCDs != orig.NumCDs || back.NumRDs != orig.NumRDs {
		t.Fatal("domain counts differ")
	}
	for ti := 0; ti < orig.EEC.Tasks; ti++ {
		for m := 0; m < orig.EEC.Machines; m++ {
			if back.EEC.At(ti, m) != orig.EEC.At(ti, m) {
				t.Fatalf("EEC differs at (%d,%d)", ti, m)
			}
		}
	}
	for i := range orig.Requests {
		a, b := orig.Requests[i], back.Requests[i]
		if a.ArrivalAt != b.ArrivalAt || a.CD != b.CD || a.ClientRTL != b.ClientRTL ||
			a.Deadline != b.Deadline || a.ToA.String() != b.ToA.String() {
			t.Fatalf("request %d differs:\n%+v\n%+v", i, a, b)
		}
	}
	// Trust costs — the quantity the scheduler consumes — must agree
	// everywhere.
	for _, r := range orig.Requests {
		for m := 0; m < orig.Spec.Machines; m++ {
			want, err := orig.TrustCost(r, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.TrustCost(back.Requests[r.ID], m)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("TC differs for request %d machine %d: %d vs %d", r.ID, m, got, want)
			}
		}
	}
}

func TestWorkloadSaveDeterministic(t *testing.T) {
	w, err := NewWorkload(rng.New(3), PaperSpec(10, Inconsistent))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := w.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("save is not deterministic")
	}
}

func TestWorkloadLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"{not json",
		`{"version": 99}`,
		`{"version": 1, "spec": {"tasks": 0}}`,
	}
	for i, blob := range cases {
		if _, err := Load(strings.NewReader(blob)); err == nil {
			t.Errorf("garbage %d accepted", i)
		}
	}
}

func TestWorkloadLoadValidatesCrossReferences(t *testing.T) {
	w, err := NewWorkload(rng.New(4), PaperSpec(5, Inconsistent))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the table so a trust-cost lookup must fail.
	blob := buf.String()
	corrupted := strings.Replace(blob, `"table": [`, `"table": [`, 1)
	// Remove all table entries by cutting between "table": [ and the
	// closing bracket — crude but effective for a validation test.
	start := strings.Index(corrupted, `"table": [`)
	if start < 0 {
		t.Fatal("serialised form changed; update the test")
	}
	end := strings.Index(corrupted[start:], "]")
	corrupted = corrupted[:start] + `"table": [` + corrupted[start+end:]
	if _, err := Load(strings.NewReader(corrupted)); err == nil {
		t.Fatal("workload with empty trust table accepted")
	}
}

// TestWorkloadLoadRequiresPositionalIDs pins that a request's id is its
// position: the simulator indexes Requests by id, so an id past the end
// panicked mid-run and a repeated id ran one request twice and another
// never, silently.
func TestWorkloadLoadRequiresPositionalIDs(t *testing.T) {
	w, err := NewWorkload(rng.New(5), PaperSpec(4, Inconsistent))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ids  []int
		want string
	}{
		{"past-the-end", []int{0, 1, 9, 3}, "request 2 has id 9"},
		{"repeated", []int{0, 0, 2, 3}, "request 1 has id 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sw serialisedWorkload
			if err := json.Unmarshal(buf.Bytes(), &sw); err != nil {
				t.Fatal(err)
			}
			for i, id := range tc.ids {
				sw.Requests[i].ID = id
			}
			blob, err := json.Marshal(sw)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Load(bytes.NewReader(blob))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load: %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("unmodified workload rejected: %v", err)
	}
}
