package campaign

import (
	"context"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/predict"
	"perfskel/internal/signature"
	"perfskel/internal/trace"
)

// staticTestSig builds a signature for testApp outside the engine, the
// way internal/analysis/staticsig would synthesize one from source, and
// wraps it under a static content key. The engine must treat it as
// given: skeleton cells built from it may simulate the skeleton but
// never the application.
func staticTestSig(t *testing.T) *StaticSig {
	t.Helper()
	rec := trace.NewRecorder(2)
	dur, err := mpi.Run(cluster.Build(cluster.Testbed(2), cluster.Dedicated()), 2, mpi.Config{}, rec, testApp().Fn)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sig, err := signature.Build(rec.Finish(dur), signature.Options{TargetRatio: 8})
	if err != nil {
		t.Fatalf("signature: %v", err)
	}
	return &StaticSig{Key: "static|app=iter-v1|class=S|p=2|src=0123456789abcdef", Sig: sig}
}

// TestStaticCellBuildsWithoutTrace pins the static path's defining
// property: a skeleton cell of a static app executes exactly one
// simulation (the skeleton run itself) — no application trace run.
func TestStaticCellBuildsWithoutTrace(t *testing.T) {
	e := New(Config{Workers: 1})
	c := Cell{
		App:      StaticApp(staticTestSig(t)),
		NRanks:   2,
		Scenario: cluster.Dedicated(),
		K:        4,
	}
	res, err := e.Run(c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Time <= 0 {
		t.Fatalf("skeleton run time = %g, want > 0", res.Time)
	}
	if got := e.Stats().Sims; got != 1 {
		t.Errorf("static skeleton cell executed %d simulations, want exactly 1 (the skeleton run)", got)
	}

	prog, sig, err := e.Construct(c)
	if err != nil {
		t.Fatalf("Construct: %v", err)
	}
	if prog == nil || sig == nil {
		t.Fatalf("Construct returned nil program or signature")
	}
	if sig != c.App.Static.Sig {
		t.Errorf("Construct should return the synthesized signature unchanged")
	}
	if got := e.Stats().Sims; got != 1 {
		t.Errorf("Construct after Run executed %d simulations, want still 1", got)
	}
}

// TestStaticCellValidation pins the static cells' contract errors.
func TestStaticCellValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	s := staticTestSig(t)

	// A static app has no program body, so an application cell (K == 0)
	// has nothing to simulate.
	if _, err := e.Run(Cell{App: StaticApp(s), NRanks: 2, Scenario: cluster.Dedicated()}); err == nil {
		t.Errorf("K == 0 cell of a static app should be rejected")
	}

	// A static signature without a content key cannot be cached safely.
	bad := App{ID: "static:nokey", Static: &StaticSig{Sig: s.Sig}}
	if _, err := e.Run(Cell{App: bad, NRanks: 2, Scenario: cluster.Dedicated(), K: 2}); err == nil {
		t.Errorf("static app without a content key should be rejected")
	}

	// Attaching a program body makes K == 0 cells legal again.
	mixed := StaticApp(s)
	mixed.Fn = testApp().Fn
	if _, err := e.Run(Cell{App: mixed, NRanks: 2, Scenario: cluster.Dedicated()}); err != nil {
		t.Errorf("static app with attached Fn should run as an app cell: %v", err)
	}
}

// TestStaticCellCacheIdentity pins that identical static cells collapse
// to one execution and that the content key separates distinct sources.
func TestStaticCellCacheIdentity(t *testing.T) {
	s := staticTestSig(t)
	e := New(Config{Workers: 2})
	c := Cell{App: StaticApp(s), NRanks: 2, Scenario: cluster.Dedicated(), K: 4}
	a, err := e.Run(c)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := e.Run(c)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Time != b.Time {
		t.Errorf("cache hit returned different time: %g vs %g", a.Time, b.Time)
	}
	if st := e.Stats(); st.Sims != 1 || st.Hits == 0 {
		t.Errorf("stats = %+v, want 1 sim and at least 1 hit", st)
	}

	// A different source hash in the key is a different cell.
	s2 := &StaticSig{Key: "static|app=iter-v1|class=S|p=2|src=feedface00000000", Sig: s.Sig}
	c2 := c
	c2.App = StaticApp(s2)
	if _, err := e.Run(c2); err != nil {
		t.Fatalf("run under new key: %v", err)
	}
	if st := e.Stats(); st.Sims != 2 {
		t.Errorf("new content key reused old cell: %d sims, want 2", st.Sims)
	}
}

// TestStaticPredictUsesSignatureBaseline pins the static-app baseline
// rule: a static app without a program body predicts against its
// synthesized signature's AppTime and never simulates the application —
// only the dedicated and scenario skeleton runs execute.
func TestStaticPredictUsesSignatureBaseline(t *testing.T) {
	s := staticTestSig(t)
	e := New(Config{Workers: 1})
	c := Cell{App: StaticApp(s), NRanks: 2, Scenario: cluster.CPUOneNode(), K: 4}
	p, err := e.Predict(c)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if p.AppDedicated != s.Sig.AppTime {
		t.Errorf("AppDedicated = %g, want the signature's AppTime %g", p.AppDedicated, s.Sig.AppTime)
	}
	if want := predict.Predict(p.SkelScenario, predict.Ratio(s.Sig.AppTime, p.SkelDedicated)); p.Predicted != want {
		t.Errorf("Predicted = %g, want %g", p.Predicted, want)
	}
	if got := e.Stats().Sims; got != 2 {
		t.Errorf("static Predict executed %d simulations, want 2 (dedicated and scenario skeleton runs, no app run)", got)
	}
	if got, err := e.AppDedicatedContext(context.Background(), c); err != nil || got != s.Sig.AppTime {
		t.Errorf("AppDedicatedContext(static cell) = %g, %v; want %g", got, err, s.Sig.AppTime)
	}
	if got := e.Stats().Sims; got != 2 {
		t.Errorf("AppDedicated of a static cell simulated: %d sims, want still 2", got)
	}
}
