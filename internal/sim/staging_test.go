package sim

import (
	"math"
	"testing"

	"gridtrust/internal/rng"
)

func TestStagingValidation(t *testing.T) {
	bad := []StagingConfig{
		{Requests: -1},
		{Requests: 10, Machines: -2},
		{Requests: 10, MaxInputMB: 0.5},
		{Requests: 10, LinkMbps: 42},
		{Requests: 10, TCWeight: -1},
		// A non-finite weight makes every trust-aware rank NaN or +Inf,
		// so no machine would ever be chosen.
		{Requests: 10, TCWeight: math.NaN()},
		{Requests: 10, TCWeight: math.Inf(1)},
		{Requests: 10, TCWeight: math.Inf(-1)},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("bad config %d panicked: %+v: %v", i, cfg, p)
				}
			}()
			if _, err := RunStaging(cfg, rng.New(1)); err == nil {
				t.Errorf("bad config %d accepted: %+v", i, cfg)
			}
		}()
	}
	if _, err := RunStaging(StagingConfig{}, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestStagingAwareWins(t *testing.T) {
	imp, plainShare, err := StagingSeries(StagingConfig{}, 2002, 20)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Mean() <= 0 {
		t.Fatalf("aware staging improvement %.2f%% not positive", imp.Mean())
	}
	// A meaningful fraction of aware transfers should run plain: the
	// scheduler routes toward fully trusted pairings.
	if plainShare.Mean() < 0.05 {
		t.Fatalf("plain-transfer share %.2f implausibly low", plainShare.Mean())
	}
	if plainShare.Mean() > 0.95 {
		t.Fatalf("plain-transfer share %.2f implausibly high", plainShare.Mean())
	}
}

func TestStagingAwareStagesLess(t *testing.T) {
	res, err := RunStaging(StagingConfig{}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// The aware run replaces some scp transfers with rcp, so its total
	// staging time must be lower on the identical instance.
	if res.AwareStaging >= res.UnawareStaging {
		t.Fatalf("aware staging %.1f not below unaware %.1f",
			res.AwareStaging, res.UnawareStaging)
	}
	if res.PlainTransfers <= 0 || res.PlainTransfers > res.Requests {
		t.Fatalf("plain transfers = %d of %d", res.PlainTransfers, res.Requests)
	}
	if res.ImprovementPct <= -100 || res.ImprovementPct >= 100 {
		t.Fatalf("improvement %.2f%% out of range", res.ImprovementPct)
	}
}

func TestStagingSavingsGrowWithInputSize(t *testing.T) {
	// The *relative* improvement does not grow monotonically (with huge
	// inputs it is capped by the plain-transfer share rather than the
	// ESC term), but the absolute staging seconds saved by trust-aware
	// routing must grow with input size, and the improvement must stay
	// positive at both scales.
	savings := func(maxMB float64) (saved, improvement float64) {
		t.Helper()
		var savedAcc, impAcc float64
		for seed := uint64(0); seed < 10; seed++ {
			res, err := RunStaging(StagingConfig{MaxInputMB: maxMB}, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			savedAcc += res.UnawareStaging - res.AwareStaging
			impAcc += res.ImprovementPct
		}
		return savedAcc / 10, impAcc / 10
	}
	smallSaved, smallImp := savings(10)
	largeSaved, largeImp := savings(2000)
	if largeSaved <= smallSaved {
		t.Fatalf("staging savings did not grow: %.1fs -> %.1fs", smallSaved, largeSaved)
	}
	if smallImp <= 0 || largeImp <= 0 {
		t.Fatalf("improvement not positive at both scales: %.2f%% / %.2f%%", smallImp, largeImp)
	}
}

func TestStagingDeterministic(t *testing.T) {
	a, err := RunStaging(StagingConfig{}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStaging(StagingConfig{}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.AwareMakespan != b.AwareMakespan || a.PlainTransfers != b.PlainTransfers {
		t.Fatal("identical seeds diverged")
	}
}

func TestStagingSeriesValidation(t *testing.T) {
	if _, _, err := StagingSeries(StagingConfig{}, 1, 0); err == nil {
		t.Error("zero reps accepted")
	}
}
