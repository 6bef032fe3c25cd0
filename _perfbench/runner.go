package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"perfskel/internal/campaign"
)

// workload is one traffic mix. Every method runs on the benchmark's
// single client goroutine.
type workload interface {
	// setUp builds the workload's state from scratch. It returns one
	// entry per output it checked: nil, or why the output failed.
	setUp() (checks []error, err error)
	// keys is the size of the fixed key space. Timed runs go on until
	// every key has run once, so per-key means do not depend on the seed.
	keys() int
	// epoch is the number of ops after which the op mix repeats exactly.
	// Timed runs stop only at a whole number of epochs, so every run
	// times the same mix of keys.
	epoch() int
	// round returns the next round of keys: one per app, in seeded order,
	// so every prefix of whole rounds gives each app an equal share.
	round(rng *rand.Rand) []string
	// collectFirst says whether the heap is collected, untimed, before
	// each op: for ops that build their state afresh, so that each starts
	// from the same heap rather than paying for its predecessor's garbage.
	collectFirst() bool
	// op runs one timed op. A non-nil error fails it.
	op(key string) (outcome, error)
	// replay runs the op's pipeline again through p, layer by layer on
	// fresh state (traced runs only).
	replay(key string, o outcome, p *pipeline) error
	// finish runs after timing and fills in anything the prediction
	// errors still need.
	finish(stats map[string]*keyStat) error
	close()
}

// outcome is what one op returned.
type outcome struct {
	start time.Time
	dur   time.Duration
	// cpu is the process CPU time the op took: client, server and the
	// garbage collection that ran meanwhile.
	cpu  time.Duration
	hit  bool
	body int // response bytes
	// errPct is the |prediction error| of the op's output, when known.
	errPct    float64
	hasErr    bool
	predicted float64
	// layer holds counts the op itself reports (cache statistics) and
	// the durations of its own sub-calls.
	layer sample
	sub   []subSpan
	// eng is the sweep op's engine, for the traced run's export probe.
	eng *campaign.Engine
}

type subSpan struct {
	name       string
	start, end time.Time
}

// sample is one op's per-layer quantities, keyed by the names
// layerMetrics reads.
type sample map[string]float64

// firstOnly names the quantities taken from a key's first op: the exact
// counts, so that they repeat across runs and seeds, and the
// once-per-run export probe.
var firstOnly = map[string]bool{
	"sim_events": true, "trace_events": true, "camp_sims": true,
	"camp_hits": true, "camp_misses": true, "svc_hits": true, "body_kb": true,
	"perfetto_ms": true, "perfetto_mb": true,
}

// keyStat accumulates everything seen for one key.
type keyStat struct {
	ops       int
	first     sample
	sum       sample
	errPct    float64
	hasErr    bool
	predicted float64
}

func (k *keyStat) add(s sample) {
	if k.first == nil {
		k.first = sample{}
		k.sum = sample{}
	}
	for n, v := range s {
		if firstOnly[n] {
			if _, ok := k.first[n]; !ok {
				k.first[n] = v
			}
			continue
		}
		k.sum[n] += v
	}
}

// mean returns the key's per-op value of quantity n, and whether the
// key's ops reported n at all.
func (k *keyStat) mean(n string) (float64, bool) {
	if firstOnly[n] {
		v, ok := k.first[n]
		return v, ok
	}
	v, ok := k.sum[n]
	return v / float64(k.ops), ok
}

// output is one run's result line, its environment, and every metric
// computed whichever ones the result carries.
type output struct {
	res result
	env env
	all map[string]metric
}

// run executes one benchmark run.
func run(cfg config) (output, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return output{}, err
	}
	defer w.close()

	attempted, failed := 0, 0 // set-up checks included
	timed := 0                // timed ops attempted
	var setupCPU, setupWall []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		c0, t0 := cpuTime(), time.Now()
		checks, err := w.setUp()
		if err != nil {
			return output{}, fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		for _, err := range checks {
			attempted++
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", cfg.workload, err)
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	stats := map[string]*keyStat{}
	tried := map[string]bool{} // coverage counts failed keys too
	sp := &spans{t0: time.Now()}
	var lat, cpuLat []float64 // per successful op: wall and CPU ms
	var opCPU time.Duration
	heap := startHeapSampler(10 * time.Millisecond)
	steal0 := readSteal()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for done := false; !done; {
		for _, key := range w.round(rng) {
			if w.collectFirst() {
				runtime.GC()
			}
			var before runtimeCounters
			if cfg.trace {
				before = readRuntime()
			}
			o, err := w.op(key)
			attempted++
			timed++
			tried[key] = true
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s op %s: %v\n", cfg.workload, key, err)
			} else {
				lat = append(lat, ms(o.dur))
				cpuLat = append(cpuLat, ms(o.cpu))
				opCPU += o.cpu
				ks := stats[key]
				if ks == nil {
					ks = &keyStat{errPct: o.errPct, hasErr: o.hasErr, predicted: o.predicted}
					stats[key] = ks
				}
				ks.ops++
				if cfg.trace {
					if err := traceOp(w, key, o, before, sp, ks); err != nil {
						return output{}, fmt.Errorf("replay %s: %w", key, err)
					}
				}
			}
			if cfg.maxOps > 0 && timed >= cfg.maxOps {
				done = true
				break
			}
		}
		if cfg.maxOps == 0 && !time.Now().Before(deadline) && len(tried) >= w.keys() && timed%w.epoch() == 0 {
			done = true
		}
	}
	elapsed := time.Since(start).Seconds()
	stealPct := readSteal().pctSince(steal0)
	heapSamples := heap.finish()
	if len(lat) == 0 {
		return output{}, fmt.Errorf("no op succeeded (%d attempted)", timed)
	}
	if err := w.finish(stats); err != nil {
		return output{}, err
	}

	all := map[string]metric{}
	all["setup_s"] = metric{median(setupCPU), "s"}
	all["op_cpu_p50_ms"] = metric{smoothedQuantile(cpuLat, 0.50), "ms"}
	all["op_cpu_p90_ms"] = metric{smoothedQuantile(cpuLat, 0.90), "ms"}
	all["ops_per_cpu_s"] = metric{float64(len(cpuLat)) / max(opCPU.Seconds(), 1e-9), "1/s"}
	all["heap_p90_mb"] = metric{percentile(heapSamples, 0.90), "MB"}
	all["pred_err_pct"] = metric{predErr(stats), "%"}
	for n, m := range layerMetrics(stats) {
		all[n] = m
	}
	all["bench.traced_op_cpu_p50_ms"] = metric{smoothedQuantile(cpuLat, 0.50), "ms"}
	all["bench.op_wall_p50_ms"] = metric{smoothedQuantile(lat, 0.50), "ms"}

	want := endToEnd
	if cfg.trace {
		want = perLayer
		if cfg.out != "" {
			path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
			if err := sp.write(path); err != nil {
				return output{}, err
			}
		}
		sp.printLeaves(os.Stderr, cfg.workload)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, n := range want {
		m, ok := all[n]
		if !ok {
			return output{}, fmt.Errorf("metric %s was not computed", n)
		}
		res.Metrics[n] = m
	}
	e := currentEnv(cfg, len(lat))
	e.SetupWallS = median(setupWall)
	e.OpWallP50, e.OpWallP90 = smoothedQuantile(lat, 0.50), smoothedQuantile(lat, 0.90)
	e.OpWallRate = float64(len(lat)) / elapsed
	e.StealPct = stealPct
	return output{res, e, all}, nil
}

// traceOp records one op's quantities and spans, then replays its
// pipeline.
func traceOp(w workload, key string, o outcome, before runtimeCounters, sp *spans, ks *keyStat) error {
	after := readRuntime()
	s := sample{
		"alloc_mb": (after.alloc - before.alloc) / (1 << 20),
		"gc":       after.gcs - before.gcs,
		"body_kb":  float64(o.body) / 1024,
		"svc_hits": 0,
	}
	if o.hit {
		s["svc_hits"] = 1
	}
	for n, v := range o.layer {
		s[n] = v
	}
	opSpan := sp.addAt(0, 0, "op", o.start, o.start.Add(o.dur))
	for _, sub := range o.sub {
		sp.addAt(opSpan, opSpan, sub.name, sub.start, sub.end)
	}
	p := newPipeline(sp, opSpan)
	if err := w.replay(key, o, p); err != nil {
		return err
	}
	p.finish()
	for n, v := range p.s {
		s[n] += v
	}
	ks.add(s)
	return nil
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares,
// emitted with --trace 0 and --trace 1 respectively.
var endToEnd = []string{"setup_s", "op_cpu_p50_ms", "op_cpu_p90_ms", "ops_per_cpu_s", "heap_p90_mb", "pred_err_pct"}

var perLayer = []string{
	"signature.fold_ms", "signature.us_per_event",
	"skeleton.build_ms", "skeleton.build_over_fold", "skeleton.run_ms",
	"sim.events_per_op", "sim.ns_per_event",
	"mpi.app_run_ms",
	"trace.events_per_op", "trace.record_overhead_pct",
	"telemetry.probe_overhead_pct", "telemetry.critpath_ms",
	"telemetry.perfetto_ms", "telemetry.perfetto_mb",
	"campaign.sims_per_op", "campaign.hit_ratio", "campaign.self_ms",
	"service.hit_ratio", "service.self_ms", "service.body_kb",
	"analysis.load_ms", "analysis.extract_ms", "analysis.instantiate_ms",
	"runtime.alloc_mb_per_op", "runtime.gc_per_op",
	"bench.traced_op_cpu_p50_ms", "bench.op_wall_p50_ms",
}

// layerMetrics turns per-key quantities into the per-layer metrics:
// the mean over the keys that reported a quantity, each key weighing
// once whatever number of ops it ran. A layer the workload never calls
// reads 0.
func layerMetrics(stats map[string]*keyStat) map[string]metric {
	keys := sortedKeys(stats)
	m := func(n string) float64 {
		t, c := 0.0, 0
		for _, k := range keys {
			if v, ok := stats[k].mean(n); ok {
				t += v
				c++
			}
		}
		if c == 0 {
			return 0
		}
		return t / float64(c)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	pct := func(with, without float64) float64 {
		if without == 0 {
			return 0
		}
		return 100 * (with - without) / without
	}
	return map[string]metric{
		"signature.fold_ms":            {m("fold_ms"), "ms"},
		"signature.us_per_event":       {ratio(1000*m("fold_ms"), m("trace_events")), "us"},
		"skeleton.build_ms":            {m("build_ms"), "ms"},
		"skeleton.build_over_fold":     {ratio(m("build_ms"), m("fold_ms")), "ratio"},
		"skeleton.run_ms":              {m("skel_run_ms"), "ms"},
		"sim.events_per_op":            {m("sim_events"), "count"},
		"sim.ns_per_event":             {ratio(1e6*m("sim_ms"), m("sim_events")), "ns"},
		"mpi.app_run_ms":               {m("app_run_ms"), "ms"},
		"trace.events_per_op":          {m("trace_events"), "count"},
		"trace.record_overhead_pct":    {pct(m("traced_ms"), m("untraced_ms")), "%"},
		"telemetry.probe_overhead_pct": {pct(m("probed_ms"), m("unprobed_ms")), "%"},
		"telemetry.critpath_ms":        {m("critpath_ms"), "ms"},
		"telemetry.perfetto_ms":        {m("perfetto_ms"), "ms"},
		"telemetry.perfetto_mb":        {m("perfetto_mb"), "MB"},
		"campaign.sims_per_op":         {m("camp_sims"), "count"},
		"campaign.hit_ratio":           {ratio(m("camp_hits"), m("camp_hits")+m("camp_misses")), "ratio"},
		"campaign.self_ms":             {m("camp_self_ms"), "ms"},
		"service.hit_ratio":            {m("svc_hits"), "ratio"},
		"service.self_ms":              {m("svc_self_ms"), "ms"},
		"service.body_kb":              {m("body_kb"), "KB"},
		"analysis.load_ms":             {m("load_ms"), "ms"},
		"analysis.extract_ms":          {m("extract_ms"), "ms"},
		"analysis.instantiate_ms":      {m("inst_ms"), "ms"},
		"runtime.alloc_mb_per_op":      {m("alloc_mb"), "MB"},
		"runtime.gc_per_op":            {m("gc"), "count"},
	}
}

// predErr is the mean |prediction error| over the distinct keys whose
// output carried one; each key weighs once.
func predErr(stats map[string]*keyStat) float64 {
	t, n := 0.0, 0
	for _, k := range sortedKeys(stats) {
		if ks := stats[k]; ks.hasErr {
			t += math.Abs(ks.errPct)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}

// sortedKeys fixes the order sums run in, so they repeat to the bit.
func sortedKeys(stats map[string]*keyStat) []string {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// smoothedQuantile estimates the q-quantile of xs as the mean of the
// values whose ranks lie within h = min(0.1, (1-q)/2) of it: [0.4, 0.6]
// for p50 and [0.85, 0.95] for p90. With five apps in equal shares, the
// p50 window is the third app's fifth of the ops and the p90 window lies
// inside the slowest app's; averaging over the window keeps a run's
// jitter from moving the estimate by a whole gap between two keys.
func smoothedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	h := min(0.1, (1-q)/2)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a := min(int(math.Floor((q-h)*n)), len(s)-1)
	b := max(int(math.Ceil((q+h)*n)), a+1)
	t := 0.0
	for _, x := range s[a:b] {
		t += x
	}
	return t / float64(b-a)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runtimeCounters are the Go runtime's cumulative allocation and GC
// counts, read without stopping the world.
type runtimeCounters struct{ alloc, gcs float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// heapSampler samples the heap in use on a ticker until finish.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()+s[1].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it to exit and returns its samples.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.samples
}

// stealCounter is the machine's cumulative CPU time in /proc/stat ticks:
// all of it, and the part the hypervisor ran other guests on our vCPUs.
type stealCounter struct{ total, steal float64 }

func readSteal() stealCounter {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealCounter{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var c stealCounter
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already counted in user
			c.total += x
		}
		if i == 7 {
			c.steal = x
		}
	}
	return c
}

// pctSince is the share of CPU time stolen since b, in percent.
func (c stealCounter) pctSince(b stealCounter) float64 {
	if d := c.total - b.total; d > 0 {
		return 100 * (c.steal - b.steal) / d
	}
	return 0
}
