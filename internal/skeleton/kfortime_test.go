package skeleton

import (
	"errors"
	"math"
	"testing"

	"perfskel/internal/signature"
)

// KForTime is the single K-derivation authority: every time-targeted
// construction path (perfskel.Construct, the campaign-backed service,
// the CLIs) delegates to it. The cases pin the rounding behaviour at the
// half-way boundaries where two hand-rolled derivations historically
// could disagree (math.Round rounds half away from zero; a truncating
// int() would not), and the MaxK bound that keeps a tiny target time
// from overflowing the int conversion.
func TestKForTime(t *testing.T) {
	cases := []struct {
		appTime, target float64
		want            int
	}{
		{10, 5, 2},
		{10, 4, 3},     // 2.5 rounds half away from zero, up to 3
		{10, 2.857, 4}, // 3.5004: just above the boundary
		{7, 2, 4},      // 3.5 rounds up to 4
		{10, 20, 1},    // sub-1 ratios clamp to K=1
		{10, 1e9, 1},
		{0.5, 0.2, 3},               // 2.5 again, fractional times
		{1, 1.0 / MaxK, MaxK},       // exactly at the bound
		{-1, 1.0 / MaxK, 1},         // negative quotients clamp like sub-1 ones
		{1, 1 / (MaxK + 0.4), MaxK}, // rounds down onto the bound
	}
	for _, c := range cases {
		got, err := KForTime(c.appTime, c.target)
		if err != nil {
			t.Errorf("KForTime(%v, %v): %v", c.appTime, c.target, err)
			continue
		}
		if got != c.want {
			t.Errorf("KForTime(%v, %v) = %d, want %d", c.appTime, c.target, got, c.want)
		}
	}
	bad := []struct{ appTime, target float64 }{
		{10, 0},
		{10, -1},
		{10, math.NaN()},
		{0.5, 1e-300},              // quotient 5e299 once overflowed int and clamped to K=1
		{0.5, 1e-12},               // 5e11: finite, far above MaxK
		{2, 1.0 / MaxK},            // 2*MaxK
		{math.Inf(1), 1},           // infinite quotient
		{math.NaN(), 1},            // NaN quotient
		{-math.MaxFloat64, 1e-300}, // -Inf quotient
	}
	for _, c := range bad {
		if k, err := KForTime(c.appTime, c.target); !errors.Is(err, ErrBadK) {
			t.Errorf("KForTime(%v, %v) = %d, %v; want an ErrBadK error", c.appTime, c.target, k, err)
		}
	}
}

// buildForTime is the build-for-a-target-time sequence every caller
// uses: derive K with KForTime, then Build at that K.
func buildForTime(sig *signature.Signature, target float64) (*Program, error) {
	k, err := KForTime(sig.AppTime, target)
	if err != nil {
		return nil, err
	}
	return Build(sig, k)
}

// Building for a target time on a traced application's own time lands
// exactly on KForTime's round-half boundary and must choose K=3.
func TestBuildForTimeUsesKForTime(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	target := sig.AppTime / 2.5 // exactly on the round-half boundary
	prog, err := buildForTime(sig, target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := KForTime(sig.AppTime, target)
	if err != nil {
		t.Fatal(err)
	}
	if prog.K != want {
		t.Fatalf("build for time chose K=%d, KForTime says %d", prog.K, want)
	}
	if want != 3 {
		t.Fatalf("boundary case should derive K=3 (round 2.5 away from zero), got %d", want)
	}
	for _, target := range []float64{0, -1} {
		if _, err := buildForTime(sig, target); !errors.Is(err, ErrBadK) {
			t.Errorf("target %v: err %v, want ErrBadK", target, err)
		}
	}
}

// Building for AppTime/7 derives K=7, and Build honours the [1, MaxK]
// bound on K.
func TestBuildForTimeDerivesK(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	p, err := buildForTime(sig, sig.AppTime/7)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 7 {
		t.Errorf("K = %d, want 7", p.K)
	}
	if _, err := buildForTime(sig, -1); !errors.Is(err, ErrBadK) {
		t.Errorf("negative target: err %v, want ErrBadK", err)
	}
	for _, k := range []int{0, -1, MaxK + 1} {
		if _, err := Build(sig, k); !errors.Is(err, ErrBadK) {
			t.Errorf("Build K=%d: err %v, want ErrBadK", k, err)
		}
	}
}
