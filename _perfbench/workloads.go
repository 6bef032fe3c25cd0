package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/staticsig"
	"perfskel/internal/campaign"
	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/predict"
	"perfskel/internal/service"
	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
	"perfskel/internal/telemetry"
	"perfskel/internal/trace"
)

// The fixed key space every workload draws from: NAS class S on 4 ranks,
// five apps in equal shares, the paper's five sharing scenarios.
const (
	nranks = 4
	class  = "S"
	// workers pins the service and campaign worker pools to the 2-CPU
	// machine the bounds were set on, instead of GOMAXPROCS.
	workers = 2
	// nasPkg is the source package static requests analyze.
	nasPkg = "internal/nas"
)

var (
	apps      = []string{"BT", "CG", "LU", "MG", "SP"}
	ks        = []int{4, 8, 16}
	scenarios = cluster.PaperScenarios(nranks)
)

func workloadNames() []string {
	return []string{"predict-cold", "predict-warm", "campaign-sweep", "predict-static"}
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "predict-cold":
		f, err := newFront()
		if err != nil {
			return nil, err
		}
		return &predictCold{front: f, dealer: newDealer(predictKeys())}, nil
	case "predict-warm":
		f, err := newFront()
		if err != nil {
			return nil, err
		}
		return &predictWarm{front: f, perApp: predictKeys()}, nil
	case "campaign-sweep":
		return &sweep{dealer: newDealer(sweepKeys())}, nil
	case "predict-static":
		f, err := newFront()
		if err != nil {
			return nil, err
		}
		return &predictStatic{front: f, dealer: newDealer(staticKeys())}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames())
}

// Keys name one op's input. They are grouped per app, in canonical order.

func predictKey(app string, k int, sc string) string {
	return fmt.Sprintf("predict/%s/K%d/%s", app, k, sc)
}
func staticKey(app, sc string) string { return fmt.Sprintf("static/%s/%s", app, sc) }

func predictKeys() [][]string {
	out := make([][]string, len(apps))
	for i, a := range apps {
		for _, k := range ks {
			for _, sc := range scenarios {
				out[i] = append(out[i], predictKey(a, k, sc.Name))
			}
		}
	}
	return out
}

func staticKeys() [][]string {
	out := make([][]string, len(apps))
	for i, a := range apps {
		for _, sc := range scenarios {
			out[i] = append(out[i], staticKey(a, sc.Name))
		}
	}
	return out
}

func sweepKeys() [][]string {
	out := make([][]string, len(apps))
	for i, a := range apps {
		out[i] = []string{a}
	}
	return out
}

// keyRequest parses a predict or static key back into its request.
func keyRequest(key string) service.Request {
	f := strings.Split(key, "/")
	r := service.Request{App: f[1], Class: class, Ranks: nranks, Scenario: f[len(f)-1]}
	if f[0] == "static" {
		r.K, r.SourcePkg = 8, nasPkg
		return r
	}
	r.K, _ = strconv.Atoi(strings.TrimPrefix(f[2], "K"))
	r.Measure = true
	return r
}

// dealer deals rounds of keys: one key per app per round, apps in a
// shuffled order. Within an epoch every key of every app is dealt once,
// each app's keys in shuffled order, so the seed decides only the order.
type dealer struct {
	perApp [][]string
	queue  [][]string
}

func newDealer(perApp [][]string) *dealer { return &dealer{perApp: perApp} }

func (d *dealer) keys() int  { return len(d.perApp) * len(d.perApp[0]) }
func (d *dealer) epoch() int { return d.keys() }

func (d *dealer) round(rng *rand.Rand) []string {
	if len(d.queue) == 0 || len(d.queue[0]) == 0 {
		d.queue = make([][]string, len(d.perApp))
		for a, keys := range d.perApp {
			for _, i := range rng.Perm(len(keys)) {
				d.queue[a] = append(d.queue[a], keys[i])
			}
		}
	}
	out := make([]string, 0, len(d.perApp))
	for _, a := range rng.Perm(len(d.perApp)) {
		out = append(out, d.queue[a][0])
		d.queue[a] = d.queue[a][1:]
	}
	return out
}

// front is the in-process HTTP server that fronts the current
// service.Server, plus the single client connection that drives it.
type front struct {
	srv    *http.Server
	served chan struct{}
	client *http.Client
	url    string
	cur    atomic.Pointer[service.Server]
	check  checker
}

func newFront() (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{served: make(chan struct{}), url: "http://" + ln.Addr().String() + "/predict"}
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.cur.Load().ServeHTTP(w, r)
	})}
	go func() {
		defer close(f.served)
		f.srv.Serve(ln)
	}()
	f.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	return f, nil
}

func newServer() *service.Server { return service.New(service.Config{Workers: workers}) }

// post sends one request and checks the reply against its golden digest.
func (f *front) post(key string) (outcome, error) {
	o, body, err := f.send(key)
	if err != nil {
		return o, err
	}
	r, err := f.check.body(key, body)
	if err != nil {
		return o, err
	}
	o.errPct, o.hasErr, o.predicted = r.Prediction.ErrorPct, r.Prediction.Measured, r.Prediction.Predicted
	return o, nil
}

// send sends key's request and returns the timed reply; anything but a
// 200 is an error.
func (f *front) send(key string) (outcome, []byte, error) {
	req, err := json.Marshal(keyRequest(key))
	if err != nil {
		return outcome{}, nil, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	resp, err := f.client.Post(f.url, "application/json", bytes.NewReader(req))
	if err != nil {
		return outcome{}, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := outcome{
		start: start, dur: time.Since(start), cpu: cpuTime() - cpu0,
		body: len(body), hit: resp.Header.Get("X-Skeletond-Cache") == "hit",
	}
	if err != nil {
		return o, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return o, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return o, body, nil
}

func (f *front) close() {
	f.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx)
	<-f.served
}

// engineCounts turns a campaign cache-counter delta into sample entries.
func engineCounts(before, after campaign.Stats) sample {
	return sample{
		"camp_sims":   float64(after.Sims - before.Sims),
		"camp_hits":   float64(after.Hits - before.Hits),
		"camp_misses": float64(after.Misses - before.Misses),
	}
}

// predictCold sends every request to a freshly constructed server, so it
// misses every cache and leaves no state behind.
type predictCold struct {
	*front
	*dealer
}

func (w *predictCold) setUp() ([]error, error) {
	var checks []error
	for _, a := range apps {
		w.cur.Store(newServer())
		_, err := w.post(predictKey(a, 8, scenarios[0].Name))
		checks = append(checks, err)
	}
	return checks, nil
}

func (w *predictCold) collectFirst() bool { return true }

func (w *predictCold) op(key string) (outcome, error) {
	srv := newServer()
	w.cur.Store(srv)
	o, err := w.post(key)
	o.layer = engineCounts(campaign.Stats{}, srv.Engine().Stats())
	return o, err
}

func (w *predictCold) replay(key string, o outcome, p *pipeline) error {
	req := keyRequest(key)
	fn, err := nas.App(req.App, nas.Class(class))
	if err != nil {
		return err
	}
	sc, err := cluster.ByName(req.Scenario, nranks)
	if err != nil {
		return err
	}
	tr, err := p.appRun(cluster.Dedicated(), fn, true)
	if err != nil {
		return err
	}
	if err := p.untracedRun(fn); err != nil {
		return err
	}
	if err := p.fold(tr); err != nil {
		return err
	}
	prog, err := p.build(tr, req.K)
	if err != nil {
		return err
	}
	for _, s := range []cluster.Scenario{cluster.Dedicated(), sc} {
		if err := p.skelRun(s, prog, true); err != nil {
			return err
		}
	}
	if _, err := p.appRun(sc, fn, true); err != nil {
		return err
	}
	p.s["svc_self_ms"] = ms(o.dur) - p.pipelineMS
	return nil
}

func (w *predictCold) finish(map[string]*keyStat) error { return nil }

// predictWarm is one long-lived server whose response cache holds every
// key; ops are seeded Zipf draws within each app and must all hit.
type predictWarm struct {
	*front
	perApp [][]string
	zipf   *rand.Zipf
}

func (w *predictWarm) setUp() ([]error, error) {
	w.cur.Store(newServer())
	var checks []error
	for _, keys := range w.perApp {
		for _, key := range keys {
			_, err := w.post(key)
			checks = append(checks, err)
		}
	}
	return checks, nil
}

func (w *predictWarm) keys() int { return len(w.perApp) * len(w.perApp[0]) }

// epoch is one round: the Zipf draws make no longer cycle.
func (w *predictWarm) epoch() int { return len(w.perApp) }

func (w *predictWarm) round(rng *rand.Rand) []string {
	if w.zipf == nil {
		w.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(w.perApp[0])-1))
	}
	out := make([]string, 0, len(w.perApp))
	for _, a := range rng.Perm(len(w.perApp)) {
		out = append(out, w.perApp[a][w.zipf.Uint64()])
	}
	return out
}

// collectFirst is false: a warm op is ~50 µs of a long-lived server's
// work, far shorter than one collection of its cache.
func (w *predictWarm) collectFirst() bool { return false }

func (w *predictWarm) op(key string) (outcome, error) {
	before := w.cur.Load().Engine().Stats()
	o, err := w.post(key)
	o.layer = engineCounts(before, w.cur.Load().Engine().Stats())
	if err == nil && !o.hit {
		err = fmt.Errorf("cache miss on a warm key")
	}
	return o, err
}

func (w *predictWarm) replay(_ string, o outcome, p *pipeline) error {
	p.s["svc_self_ms"] = ms(o.dur)
	return nil
}

func (w *predictWarm) finish(map[string]*keyStat) error { return nil }

// predictStatic is one long-lived server answering trace-free requests
// that analyze internal/nas from source on every request.
type predictStatic struct {
	*front
	*dealer
}

func (w *predictStatic) setUp() ([]error, error) {
	w.cur.Store(newServer())
	var checks []error
	for _, a := range apps {
		_, err := w.post(staticKey(a, scenarios[0].Name))
		checks = append(checks, err)
	}
	return checks, nil
}

func (w *predictStatic) collectFirst() bool { return true }

func (w *predictStatic) op(key string) (outcome, error) {
	before := w.cur.Load().Engine().Stats()
	o, err := w.post(key)
	o.layer = engineCounts(before, w.cur.Load().Engine().Stats())
	return o, err
}

func (w *predictStatic) replay(key string, o outcome, p *pipeline) error {
	req := keyRequest(key)
	var pkg *analysis.Package
	load, err := p.leaf("analysis.load", true, func() error {
		l, err := analysis.NewLoader(nasPkg)
		if err != nil {
			return err
		}
		pkg, err = l.LoadDir(nasPkg)
		return err
	})
	if err != nil {
		return err
	}
	var par *staticsig.Parametric
	extract, err := p.leaf("analysis.extract", true, func() (err error) {
		par, err = staticsig.Extract(commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}, req.App)
		return err
	})
	if err != nil {
		return err
	}
	inst, err := p.leaf("analysis.instantiate", true, func() error {
		_, err := par.Instantiate(nranks, class)
		return err
	})
	if err != nil {
		return err
	}
	p.s["load_ms"], p.s["extract_ms"], p.s["inst_ms"] = load, extract, inst
	p.s["svc_self_ms"] = ms(o.dur) - p.pipelineMS
	return nil
}

// finish measures each covered key's application under its scenario,
// which static requests cannot ask for, and sets its prediction error.
func (w *predictStatic) finish(stats map[string]*keyStat) error {
	eng := campaign.New(campaign.Config{Workers: workers})
	for _, key := range sortedKeys(stats) {
		req := keyRequest(key)
		app, err := campaign.NASApp(req.App, nas.Class(class))
		if err != nil {
			return err
		}
		sc, err := cluster.ByName(req.Scenario, nranks)
		if err != nil {
			return err
		}
		act, err := eng.Run(campaign.Cell{App: app, NRanks: nranks, Scenario: sc})
		if err != nil {
			return err
		}
		ks := stats[key]
		ks.errPct, ks.hasErr = predict.ErrorPct(ks.predicted, act.Time), true
	}
	return nil
}

// sweep runs a one-app campaign grid per op on a fresh engine with
// telemetry on: K=8, the five paper scenarios, applications measured.
type sweep struct {
	*dealer
	check    checker
	exported bool // the run's Perfetto export probe is done
}

func sweepGrid(app campaign.App) campaign.Grid {
	return campaign.Grid{Apps: []campaign.App{app}, NRanks: nranks, Ks: []int{8}, MeasureApp: true}
}

func (w *sweep) setUp() ([]error, error) {
	var checks []error
	for _, a := range apps {
		_, err := w.op(a)
		checks = append(checks, err)
	}
	return checks, nil
}

func (w *sweep) collectFirst() bool { return true }

func (w *sweep) op(key string) (outcome, error) {
	app, err := campaign.NASApp(key, nas.Class(class))
	if err != nil {
		return outcome{}, err
	}
	eng := campaign.New(campaign.Config{Workers: workers, Telemetry: true})
	cpu0 := cpuTime()
	t0 := time.Now()
	preds, err := eng.PredictAllContext(context.Background(), sweepGrid(app))
	t1 := time.Now()
	cpu1 := cpuTime()
	if err != nil {
		return outcome{}, err
	}
	cps, err := eng.CritPaths()
	t2 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	err = eng.WriteMetrics(io.Discard)
	t3 := time.Now()
	cpu3 := cpuTime()
	o := outcome{
		start: t0, dur: t3.Sub(t0), cpu: cpu3 - cpu0, eng: eng,
		layer: engineCounts(campaign.Stats{}, eng.Stats()),
		sub: []subSpan{
			{"campaign.predict_all", t0, t1},
			{"telemetry.critpath", t1, t2},
			{"telemetry.metrics", t2, t3},
		},
	}
	o.layer["critpath_ms"] = ms(t2.Sub(t1))
	o.layer["predict_cpu_ms"] = ms(cpu1 - cpu0)
	if err != nil {
		return o, err
	}
	for _, p := range preds {
		o.errPct += p.ErrorPct / float64(len(preds))
	}
	o.hasErr = true
	return o, w.check.sweep(key, preds, cps)
}

func (w *sweep) replay(key string, o outcome, p *pipeline) error {
	fn, err := nas.App(key, nas.Class(class))
	if err != nil {
		return err
	}
	p.probe = true
	tr, err := p.appRun(cluster.Dedicated(), fn, true)
	if err != nil {
		return err
	}
	if err := p.fold(tr); err != nil {
		return err
	}
	prog, err := p.build(tr, 8)
	if err != nil {
		return err
	}
	if err := p.skelRun(cluster.Dedicated(), prog, true); err != nil {
		return err
	}
	for _, sc := range scenarios {
		if err := p.skelRun(sc, prog, true); err != nil {
			return err
		}
		if _, err := p.appRun(sc, fn, true); err != nil {
			return err
		}
	}
	// The same twelve simulations without a collector, for the probe
	// overhead.
	p.probe = false
	if _, err := p.appRun(cluster.Dedicated(), fn, false); err != nil {
		return err
	}
	for _, sc := range append([]cluster.Scenario{cluster.Dedicated()}, scenarios...) {
		if err := p.skelRun(sc, prog, false); err != nil {
			return err
		}
	}
	for _, sc := range scenarios {
		if _, err := p.appRun(sc, fn, false); err != nil {
			return err
		}
	}
	p.s["camp_self_ms"] = o.layer["predict_cpu_ms"] - p.pipelineMS

	// The merged Perfetto export, once per run, on the smallest grid
	// (MG, ~10 MB); CG's export is ~120 MB and would dominate the run.
	if key == "MG" && !w.exported {
		w.exported = true
		var n countingWriter
		d, err := p.leaf("telemetry.perfetto", false, func() error { return o.eng.WritePerfetto(&n) })
		if err != nil {
			return err
		}
		p.s["perfetto_ms"], p.s["perfetto_mb"] = d, float64(n)/(1<<20)
	}
	return nil
}

func (w *sweep) finish(map[string]*keyStat) error { return nil }
func (w *sweep) close()                           {}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// cpuTime is the process's user plus system CPU time: the time its
// threads ran, which on a virtual machine leaves out the time the host
// gave the vCPU to someone else.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pipeline replays the paper's pipeline one public layer call at a time,
// each call on fresh state and under its own span, and sums what the
// calls report into s. Calls the op itself makes are pipeline leaves;
// their total is pipelineMS.
type pipeline struct {
	sp         *spans
	op, parent int
	probe      bool
	s          sample
	pipelineMS float64
}

func newPipeline(sp *spans, opSpan int) *pipeline {
	now := time.Now()
	parent := sp.addAt(opSpan, opSpan, "replay", now, now)
	return &pipeline{sp: sp, op: opSpan, parent: parent, s: sample{}}
}

// finish closes the replay span, or drops it when nothing was replayed.
func (p *pipeline) finish() {
	if len(p.sp.list) == p.parent {
		p.sp.list = p.sp.list[:p.parent-1]
		return
	}
	p.sp.list[p.parent-1].End = p.sp.us(time.Now())
}

func (p *pipeline) leaf(name string, inPipeline bool, f func() error) (float64, error) {
	d, err := p.sp.leaf(p.op, p.parent, name, inPipeline, f)
	if inPipeline {
		p.pipelineMS += d
	}
	return d, err
}

// cluster builds a fresh testbed under sc, with a collector when the
// replay is probed.
func (p *pipeline) cluster(sc cluster.Scenario) (*cluster.Cluster, mpi.Config) {
	var cfg mpi.Config
	if !p.probe {
		return cluster.Build(cluster.Testbed(nranks), sc), cfg
	}
	col := telemetry.NewCollector()
	cfg.Probe = col
	return cluster.BuildProbed(cluster.Testbed(nranks), sc, col), cfg
}

// sim runs one recorded simulation as the campaign engine does: under a
// recorder, finishing the trace and its statistics. Pipeline runs count
// towards the sim and probe quantities; the others towards unprobed_ms.
func (p *pipeline) sim(name string, sc cluster.Scenario, inPipeline bool, run func(*cluster.Cluster, mpi.Config, mpi.Monitor) (float64, error)) (*trace.Trace, float64, error) {
	cl, cfg := p.cluster(sc)
	var tr *trace.Trace
	d, err := p.leaf(name, inPipeline, func() error {
		rec := trace.NewRecorder(nranks)
		dur, err := run(cl, cfg, rec)
		if err != nil {
			return err
		}
		tr = rec.Finish(dur)
		tr.Stats()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if inPipeline {
		p.s["sim_events"] += float64(cl.Engine.Stats().Events)
		p.s["sim_ms"] += d
		if p.probe {
			p.s["probed_ms"] += d
		}
	} else {
		p.s["unprobed_ms"] += d
	}
	return tr, d, nil
}

// where names a run's span after its scenario: "dedicated" or "scenario".
func where(sc cluster.Scenario) string {
	if sc.Name == cluster.Dedicated().Name {
		return "dedicated"
	}
	return "scenario"
}

// appRun runs the application under sc.
func (p *pipeline) appRun(sc cluster.Scenario, fn mpi.App, inPipeline bool) (*trace.Trace, error) {
	tr, d, err := p.sim("mpi.app_run."+where(sc), sc, inPipeline, func(cl *cluster.Cluster, cfg mpi.Config, mon mpi.Monitor) (float64, error) {
		return mpi.RunContext(context.Background(), cl, nranks, cfg, mon, fn)
	})
	if err != nil {
		return nil, err
	}
	if inPipeline {
		p.s["app_run_ms"] += d
		if where(sc) == "dedicated" {
			p.s["traced_ms"] += d
			p.s["trace_events"] += float64(tr.Len())
		}
	}
	return tr, nil
}

// untracedRun runs the application on the dedicated testbed with no
// recorder, the baseline of the trace-recording overhead.
func (p *pipeline) untracedRun(fn mpi.App) error {
	cl, cfg := p.cluster(cluster.Dedicated())
	d, err := p.leaf("mpi.app_run.dedicated.untraced", false, func() error {
		_, err := mpi.RunContext(context.Background(), cl, nranks, cfg, nil, fn)
		return err
	})
	p.s["untraced_ms"] += d
	return err
}

// skelRun runs the skeleton under sc.
func (p *pipeline) skelRun(sc cluster.Scenario, prog *skeleton.Program, inPipeline bool) error {
	_, d, err := p.sim("skeleton.run."+where(sc), sc, inPipeline, func(cl *cluster.Cluster, cfg mpi.Config, mon mpi.Monitor) (float64, error) {
		return skeleton.RunContext(context.Background(), prog, cl, cfg, mon)
	})
	if inPipeline {
		p.s["skel_run_ms"] += d
	}
	return err
}

// fold builds one signature at the default threshold: the loop folding
// a skeleton build repeats once per threshold step.
func (p *pipeline) fold(tr *trace.Trace) error {
	d, err := p.leaf("signature.fold", false, func() error {
		_, err := signature.Build(tr, signature.Options{})
		return err
	})
	p.s["fold_ms"] += d
	return err
}

func (p *pipeline) build(tr *trace.Trace, k int) (*skeleton.Program, error) {
	var prog *skeleton.Program
	d, err := p.leaf("skeleton.build", true, func() (err error) {
		prog, _, err = skeleton.BuildFromTrace(tr, k, skeleton.Options{})
		return err
	})
	p.s["build_ms"] += d
	return prog, err
}
