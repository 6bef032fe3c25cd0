package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// The workloads name source paths relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloadNames())
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs one op of every workload untraced and one traced, and
// checks that every declared metric comes out with its declared unit.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			out, err := run(config{workload: name, seed: 1, maxOps: 1, setups: 1, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.res.Correct || out.res.Failed != 0 || out.env.Ops != 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d timed ops=%d", name, trace, out.res.Correct, out.res.Failed, out.env.Ops)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(out.res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.res.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := out.res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, n)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", name, trace, n, m.Unit, unit)
				}
			}
			if m := out.res.Metrics["op_cpu_p50_ms"]; !trace && m.Value <= 0 {
				t.Errorf("%s: op_cpu_p50_ms = %v", name, m.Value)
			}
		}
	}
}

// exact are the metrics that must repeat to the bit across runs and
// seeds: counts, cache hit ratios and the prediction error.
var exact = []string{
	"sim.events_per_op", "trace.events_per_op", "campaign.sims_per_op",
	"campaign.hit_ratio", "service.hit_ratio", "pred_err_pct",
}

// TestExactRepeat runs every workload twice, with different seeds, over
// its whole key space, and compares the exact metrics.
func TestExactRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's key space twice")
	}
	for _, name := range workloadNames() {
		var first map[string]metric
		for _, seed := range []int64{1, 2} {
			out, err := run(config{workload: name, seed: seed, setups: 1, trace: true})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !out.res.Correct {
				t.Errorf("%s seed %d: %d of %d ops failed", name, seed, out.res.Failed, out.res.Attempted)
			}
			if first == nil {
				first = out.all
				continue
			}
			for _, n := range exact {
				if a, b := first[n].Value, out.all[n].Value; a != b {
					t.Errorf("%s: %s = %v with seed 1, %v with seed 2", name, n, a, b)
				}
			}
		}
		if first["pred_err_pct"].Value <= 0 {
			t.Errorf("%s: pred_err_pct = %v", name, first["pred_err_pct"].Value)
		}
	}
}
