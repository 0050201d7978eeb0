package fault

import (
	"strings"
	"testing"

	"gridtrust/internal/rng"
	"gridtrust/internal/stats"
)

func TestRunStudyDeterministic(t *testing.T) {
	cfg := StudyConfig{LiarFraction: 0.5, RWeighted: true, Rounds: 60}
	a, err := RunStudy(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStudy(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunStudyValidation(t *testing.T) {
	if _, err := RunStudy(StudyConfig{LiarFraction: 2}, rng.New(1)); err == nil {
		t.Fatal("liar fraction 2 must be rejected")
	}
	if _, err := RunStudy(StudyConfig{Resources: 1, Recommenders: 1, Rounds: 1}, rng.New(1)); err == nil {
		t.Fatal("single resource must be rejected")
	}
	// With two fields out of range the error names the first in declared
	// order, every time.
	for i := 0; i < 20; i++ {
		_, err := RunStudy(StudyConfig{BadFraction: 2, LiarFraction: 2}, rng.New(1))
		if err == nil || !strings.Contains(err.Error(), "bad fraction") {
			t.Fatalf("run %d: got %v, want the bad-fraction error", i, err)
		}
	}
}

// TestRWeightedResistsCollusion is the subsystem's reason to exist: under
// a collusive lying majority, unweighted reputation collapses (the
// observer keeps placing on boosted bad resources) while the R-weighted
// observer audits the liars down to zero weight and keeps both its trust
// table and its placements close to the truth.
func TestRWeightedResistsCollusion(t *testing.T) {
	const reps = 5
	run := func(weighted bool) (te, bad, liarR stats.Running) {
		srcs := rng.Streams(2002, reps)
		for rep := 0; rep < reps; rep++ {
			r, err := RunStudy(StudyConfig{LiarFraction: 0.75, RWeighted: weighted}, srcs[rep])
			if err != nil {
				t.Fatal(err)
			}
			te.Add(r.TrustError)
			bad.Add(r.BadShare)
			liarR.Add(r.MeanLiarR)
		}
		return
	}
	uwTE, uwBad, uwR := run(false)
	wTE, wBad, wR := run(true)
	if uwR.Mean() != 1 {
		t.Fatalf("unweighted liar R = %g, want pinned 1", uwR.Mean())
	}
	if wR.Mean() > 0.2 {
		t.Fatalf("weighted liar R = %.2f, want audited below 0.2", wR.Mean())
	}
	if wTE.Mean() >= uwTE.Mean() {
		t.Fatalf("trust error: weighted %.2f !< unweighted %.2f", wTE.Mean(), uwTE.Mean())
	}
	if uwBad.Mean() < 0.5 {
		t.Fatalf("unweighted bad share %.2f: collusion should have collapsed placements", uwBad.Mean())
	}
	if wBad.Mean() > 0.3 {
		t.Fatalf("weighted bad share %.2f: defense failed", wBad.Mean())
	}
}

// TestStudyNoLiars checks the defense costs nothing when nobody lies:
// both variants track the truth.
func TestStudyNoLiars(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		r, err := RunStudy(StudyConfig{RWeighted: weighted}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if r.TrustError > 1.2 {
			t.Fatalf("weighted=%v: trust error %.2f without liars", weighted, r.TrustError)
		}
		if r.BadShare > 0.1 {
			t.Fatalf("weighted=%v: bad share %.2f without liars", weighted, r.BadShare)
		}
	}
}

// TestStudyOscillate smoke-checks the oscillating-resource variant: the
// adversaries still get caught, if more slowly.
func TestStudyOscillate(t *testing.T) {
	r, err := RunStudy(StudyConfig{LiarFraction: 0.5, RWeighted: true, Oscillate: true}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanLiarR > 0.3 {
		t.Fatalf("oscillating study left liar R at %.2f", r.MeanLiarR)
	}
}
