package perfskel_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"perfskel"
)

func TestEndToEndPipeline(t *testing.T) {
	// The package-level quickstart: trace CG class S, build a skeleton,
	// predict under CPU contention.
	env := perfskel.NewTestbed(4, perfskel.Dedicated())
	app, err := perfskel.NASApp("CG", perfskel.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	tr, appTime, err := env.Trace(4, app)
	if err != nil {
		t.Fatal(err)
	}
	if appTime <= 0 || tr.Len() == 0 {
		t.Fatalf("trace: %v s, %d events", appTime, tr.Len())
	}

	skel, _, err := perfskel.Construct(tr, perfskel.WithK(10),
		perfskel.WithSignatureOptions(perfskel.SignatureOptions{TargetRatio: 5}))
	if err != nil {
		t.Fatal(err)
	}

	ded, err := perfskel.NewTestbed(4, perfskel.Dedicated()).RunSkeleton(skel)
	if err != nil {
		t.Fatal(err)
	}
	if r := appTime / ded; r < 7 || r > 13 {
		t.Errorf("measured scaling ratio %.1f, want ~10", r)
	}

	shared := perfskel.NewTestbed(4, perfskel.CPUAllNodes(4))
	skelShared, err := shared.RunSkeleton(skel)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := shared.Run(4, app)
	if err != nil {
		t.Fatal(err)
	}
	pred := perfskel.PredictTime(appTime, ded, skelShared)
	if e := perfskel.PredictionErrorPct(pred, actual); e > 10 {
		t.Errorf("prediction error %.1f%%, want < 10%%", e)
	}
}

func TestUserWrittenApp(t *testing.T) {
	// The public API supports arbitrary applications, not just the NAS
	// models.
	env := perfskel.NewTestbed(2, perfskel.Dedicated())
	dur, err := env.Run(2, func(c *perfskel.Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 5; i++ {
			c.Compute(0.1)
			sr := c.Isend(peer, 1, 1024)
			rr := c.Irecv(peer, 1)
			c.Wait(rr)
			c.Wait(sr)
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dur-0.5) > 0.01 {
		t.Errorf("duration %v, want ~0.5", dur)
	}
}

func TestMinGoodSkeletonTime(t *testing.T) {
	env := perfskel.NewTestbed(2, perfskel.Dedicated())
	tr, appTime, err := env.Trace(2, func(c *perfskel.Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 40; i++ {
			c.Compute(0.05)
			c.Sendrecv(peer, 10000, peer, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, sig, err := perfskel.Construct(tr, perfskel.WithK(20),
		perfskel.WithSignatureOptions(perfskel.SignatureOptions{TargetRatio: 10}))
	if err != nil {
		t.Fatal(err)
	}
	got := perfskel.MinGoodSkeletonTime(sig)
	want := appTime / 40
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("min good time %v, want ~%v", got, want)
	}
}

func TestCodegenFacade(t *testing.T) {
	env := perfskel.NewTestbed(2, perfskel.Dedicated())
	app, _ := perfskel.NASApp("IS", perfskel.ClassS)
	tr, _, err := env.Trace(2, app)
	if err != nil {
		t.Fatal(err)
	}
	skel, _, err := perfskel.Construct(tr, perfskel.WithK(2),
		perfskel.WithSignatureOptions(perfskel.SignatureOptions{TargetRatio: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if src := perfskel.CSource(skel); !strings.Contains(src, "MPI_Init") {
		t.Error("C source missing MPI_Init")
	}
	if src := perfskel.GoSource(skel); !strings.Contains(src, "package main") {
		t.Error("Go source missing package main")
	}
}

func TestScenarioFactories(t *testing.T) {
	if len(perfskel.PaperScenarios(4)) != 5 {
		t.Error("want five paper scenarios")
	}
	if perfskel.Dedicated().Name != "dedicated" {
		t.Error("dedicated scenario misnamed")
	}
}

func TestNASRegistry(t *testing.T) {
	names := perfskel.NASBenchmarks()
	if len(names) != 6 {
		t.Fatalf("benchmarks = %v", names)
	}
	for _, n := range names {
		if _, err := perfskel.NASApp(n, perfskel.ClassS); err != nil {
			t.Errorf("NASApp(%s): %v", n, err)
		}
	}
}

func TestFacadeExtensions(t *testing.T) {
	env := perfskel.NewTestbed(4, perfskel.Dedicated())
	app, _ := perfskel.NASApp("CG", perfskel.ClassS)
	tr, appTime, err := env.Trace(4, app)
	if err != nil {
		t.Fatal(err)
	}
	skel, _, err := perfskel.Construct(tr, perfskel.WithK(8),
		perfskel.WithSignatureOptions(perfskel.SignatureOptions{TargetRatio: 4}),
		perfskel.WithSkeletonOptions(perfskel.SkeletonOptions{
			Mode:          perfskel.TimeScale,
			SpreadCompute: true,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.RunSkeleton(skel); err != nil {
		t.Fatal(err)
	}
	// Rescaling to 8 ranks and probing there.
	skel8, err := perfskel.RescaleSkeleton(skel, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := perfskel.NewTestbed(8, perfskel.Dedicated()).RunSkeleton(skel8); err != nil {
		t.Fatal(err)
	}
	// Scenario lookup and cross traffic.
	sc, err := perfskel.ScenarioByName("combined", 4)
	if err != nil || sc.Name != "combined" {
		t.Fatalf("scenario lookup: %v %v", sc, err)
	}
	noisy := perfskel.WithCrossTraffic(perfskel.Dedicated(), perfskel.CrossTraffic{
		MeanGap: 0.01, MeanBytes: 1e5, Seed: 3,
	})
	if _, err := perfskel.NewTestbed(4, noisy).RunSkeleton(skel); err != nil {
		t.Fatal(err)
	}
	_ = appTime
}

func TestFacadeFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	env := perfskel.NewTestbed(2, perfskel.Dedicated())
	app, _ := perfskel.NASApp("MG", perfskel.ClassS)
	tr, _, err := env.Trace(2, app)
	if err != nil {
		t.Fatal(err)
	}
	trPath := filepath.Join(dir, "t.json")
	if err := tr.Save(trPath); err != nil {
		t.Fatal(err)
	}
	tr2, err := perfskel.LoadTrace(trPath)
	if err != nil || tr2.Len() != tr.Len() {
		t.Fatalf("trace round trip: %v", err)
	}
	skel, sig, err := perfskel.Construct(tr2, perfskel.WithK(3),
		perfskel.WithSignatureOptions(perfskel.SignatureOptions{TargetRatio: 3}))
	if err != nil {
		t.Fatal(err)
	}
	sigPath := filepath.Join(dir, "s.json")
	if err := sig.Save(sigPath); err != nil {
		t.Fatal(err)
	}
	if _, err := perfskel.LoadSignature(sigPath); err != nil {
		t.Fatal(err)
	}
	skPath := filepath.Join(dir, "k.json")
	if err := skel.Save(skPath); err != nil {
		t.Fatal(err)
	}
	skel2, err := perfskel.LoadSkeleton(skPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.RunSkeleton(skel2); err != nil {
		t.Fatal(err)
	}
}
