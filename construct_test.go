package perfskel_test

import (
	"testing"

	"perfskel"
	"perfskel/internal/skeleton"
)

// constructTrace records a small two-rank iterative app for the
// Construct option tests.
func constructTrace(t *testing.T) (*perfskel.Trace, float64) {
	t.Helper()
	app := func(c *perfskel.Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 40; i++ {
			c.Compute(0.01)
			c.Sendrecv(peer, 8_000, peer, 1)
			c.Allreduce(8)
		}
	}
	env := perfskel.NewTestbed(2, perfskel.Dedicated())
	tr, appTime, err := env.Trace(2, app)
	if err != nil {
		t.Fatal(err)
	}
	return tr, appTime
}

func TestConstructRequiresScalingFactor(t *testing.T) {
	tr, _ := constructTrace(t)
	if _, _, err := perfskel.Construct(tr); err == nil {
		t.Fatal("Construct without WithK or WithTargetTime should fail")
	}
	if _, _, err := perfskel.Construct(tr, perfskel.WithTargetTime(-1)); err == nil {
		t.Fatal("Construct with a negative target time should fail")
	}
	if _, _, err := perfskel.Construct(tr, perfskel.WithK(-2)); err == nil {
		t.Fatal("Construct with a negative K should fail")
	}
}

// WithK overrides WithTargetTime: an explicit factor is more specific
// than a derived one.
func TestConstructKPrecedence(t *testing.T) {
	tr, _ := constructTrace(t)
	skel, _, err := perfskel.Construct(tr,
		perfskel.WithTargetTime(0.001), // would derive a huge K
		perfskel.WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	if skel.K != 4 {
		t.Errorf("K = %d, want 4 (WithK should win over WithTargetTime)", skel.K)
	}
}

// WithTargetTime derives K exactly as skeleton.KForTime does — round
// half away from zero at the x.5 boundary — and then builds the same
// skeleton WithK would for that factor.
func TestConstructTargetTimeUsesKForTime(t *testing.T) {
	tr, appTime := constructTrace(t)
	target := appTime / 2.5 // lands K on a rounding boundary
	byTime, _, err := perfskel.Construct(tr, perfskel.WithTargetTime(target))
	if err != nil {
		t.Fatal(err)
	}
	want, err := skeleton.KForTime(appTime, target)
	if err != nil {
		t.Fatal(err)
	}
	if byTime.K != want || want != 3 {
		t.Fatalf("Construct derived K=%d, KForTime says %d; want 3 at the x.5 boundary (round half away from zero)", byTime.K, want)
	}
	byK, _, err := perfskel.Construct(tr, perfskel.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if byK.K != byTime.K || byK.TargetTime != byTime.TargetTime || byK.Ops(0) != byTime.Ops(0) {
		t.Errorf("WithTargetTime (K=%d, %.4f s, %d ops) != WithK(3) (K=%d, %.4f s, %d ops)",
			byTime.K, byTime.TargetTime, byTime.Ops(0), byK.K, byK.TargetTime, byK.Ops(0))
	}
}

func TestConstructWithSignatureOptions(t *testing.T) {
	tr, _ := constructTrace(t)
	skel, sig, err := perfskel.Construct(tr,
		perfskel.WithK(6),
		perfskel.WithSignatureOptions(perfskel.SignatureOptions{TargetRatio: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if skel.K != 6 {
		t.Errorf("K = %d, want 6", skel.K)
	}
	if sig == nil || sig.Len() == 0 {
		t.Fatal("Construct returned no signature")
	}
	env := perfskel.NewTestbed(2, perfskel.Dedicated())
	if _, err := env.RunSkeleton(skel); err != nil {
		t.Errorf("skeleton from explicit signature options does not run: %v", err)
	}
}

func TestConstructWithMode(t *testing.T) {
	tr, _ := constructTrace(t)
	// K above the iteration count forces parameter scaling, where the
	// two modes actually diverge (loop division alone is mode-agnostic).
	byteScale, _, err := perfskel.Construct(tr, perfskel.WithK(80))
	if err != nil {
		t.Fatal(err)
	}
	timeScale, _, err := perfskel.Construct(tr, perfskel.WithK(80),
		perfskel.WithMode(perfskel.TimeScale))
	if err != nil {
		t.Fatal(err)
	}
	env := perfskel.NewTestbed(2, perfskel.Dedicated())
	tB, err := env.RunSkeleton(byteScale)
	if err != nil {
		t.Fatal(err)
	}
	tT, err := env.RunSkeleton(timeScale)
	if err != nil {
		t.Fatal(err)
	}
	if tB == tT {
		t.Error("ByteScale and TimeScale skeletons ran identically; WithMode may be ignored")
	}
}

// TestConstructWithStaticSource pins the trace-free path: Construct
// with a nil trace synthesizes the signature from the NAS source
// package, and the resulting skeleton runs.
func TestConstructWithStaticSource(t *testing.T) {
	skel, sig, err := perfskel.Construct(nil,
		perfskel.WithStaticSource("perfskel/internal/nas"),
		perfskel.WithStaticApp("CG", 4, "S"),
		perfskel.WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	if sig == nil || sig.NRanks != 4 {
		t.Fatalf("static signature: %+v", sig)
	}
	env := perfskel.NewTestbed(4, perfskel.Dedicated())
	dur, err := env.RunSkeleton(skel)
	if err != nil {
		t.Fatalf("static skeleton does not run: %v", err)
	}
	if dur <= 0 {
		t.Fatalf("static skeleton ran in %g s", dur)
	}

	// The same spelling with a directory path is equivalent.
	skelDir, _, err := perfskel.Construct(nil,
		perfskel.WithStaticSource("internal/nas"),
		perfskel.WithStaticApp("CG", 4, "S"),
		perfskel.WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	if skelDir.K != skel.K || skelDir.Ops(0) != skel.Ops(0) {
		t.Errorf("directory and import-path spellings built different skeletons")
	}
}

// TestConstructStaticValidation pins the static options' contract
// errors.
func TestConstructStaticValidation(t *testing.T) {
	if _, _, err := perfskel.Construct(nil, perfskel.WithK(2)); err == nil {
		t.Error("nil trace without WithStaticSource should fail")
	}
	if _, _, err := perfskel.Construct(nil, perfskel.WithK(2),
		perfskel.WithStaticSource("perfskel/internal/nas")); err == nil {
		t.Error("WithStaticSource without WithStaticApp should fail")
	}
	if _, _, err := perfskel.Construct(nil, perfskel.WithK(2),
		perfskel.WithStaticSource("perfskel/internal/nas"),
		perfskel.WithStaticApp("CG", 4, "Z")); err == nil {
		t.Error("unknown problem class should fail")
	}
	if _, _, err := perfskel.Construct(nil, perfskel.WithK(2),
		perfskel.WithStaticSource("perfskel/internal/nas"),
		perfskel.WithStaticApp("NoSuchApp", 4, "S")); err == nil {
		t.Error("unknown app should fail")
	}
}
