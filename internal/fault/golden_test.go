package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
)

const goldenStudyFile = "testdata/golden_studies.json"

// bitsOf spells every float64 field of a result struct as the hex of its
// Float64bits, in declaration order.
func bitsOf(res any) []string {
	v := reflect.ValueOf(res).Elem()
	out := make([]string, v.NumField())
	for i := range out {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(v.Field(i).Float()))
	}
	return out
}

// TestGoldenStudies pins RunStudy and RunZoo bit for bit: every result
// field of every cell the fault and trustzoo sweeps (configs/sweeps) run
// (liar fractions 0.25/0.5/0.75 with the defense off and on; every
// registered model in every environment), on seeds 1, 2 and 3.
//
// testdata/golden_studies.json was recorded at commit 3209f66 (PR 19), the
// last where RunStudy and RunZoo were two hand-written copies of the
// closed trust loop; merging them had to leave the file untouched.
//
// After an intended change of behaviour, delete the file and run the test
// once: it records the current bits and fails, so a missing file never
// passes.
func TestGoldenStudies(t *testing.T) {
	got := map[string][]string{}
	for _, seed := range []uint64{1, 2, 3} {
		for _, lf := range []float64{0.25, 0.5, 0.75} {
			for _, weighted := range []bool{false, true} {
				res, err := RunStudy(StudyConfig{LiarFraction: lf, RWeighted: weighted}, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("study/liar=%.2f/weighted=%v/seed=%d", lf, weighted, seed)] = bitsOf(res)
			}
		}
		for _, sc := range ZooScenarios() {
			for _, m := range trust.ModelNames() {
				res, err := RunZoo(ZooConfig{Model: m, Scenario: sc}, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("zoo/%s/%s/seed=%d", sc, m, seed)] = bitsOf(res)
			}
		}
	}

	data, err := os.ReadFile(goldenStudyFile)
	if os.IsNotExist(err) {
		data, err = json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStudyFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded %d cells from the current behaviour; review and commit it", goldenStudyFile, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cells, the test runs %d", goldenStudyFile, len(want), len(got))
	}
	for name, bits := range got {
		if !reflect.DeepEqual(bits, want[name]) {
			t.Errorf("%s: bits %v, pinned %v", name, bits, want[name])
		}
	}
}
