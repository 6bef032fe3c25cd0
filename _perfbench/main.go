// Command perfbench is perfskel's end-to-end and per-layer benchmark.
//
// It runs one workload for a fixed wall time as a closed loop (one
// client, one connection, one process), checks every output against
// the stored goldens, and prints one JSON result line:
//
//	perfbench --workload predict-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 each op is followed by a replay of its pipeline, layer by
// layer, and the result carries the per-layer metrics. --report runs
// every workload once each way and prints a table. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// maxOps stops the run after that many timed ops (0: no limit); it
	// also lifts the key-coverage rule, so tests can run a single op.
	maxOps int
	// setups is how many times the set-up is repeated; setup_s is the
	// median.
	setups int
	// out is where span files go ("" to skip writing them).
	out string
	rev string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records where and on what a result was measured.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Ops        int    `json:"ops"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Rev        string `json:"rev"`
	CPU        string `json:"cpu"`
	// Wall-clock figures of the run, for reading next to the CPU-time
	// metrics; StealPct is the share of the machine's CPU time the
	// hypervisor gave to other guests while the run was timed.
	SetupWallS float64 `json:"setup_wall_s"`
	OpWallP50  float64 `json:"op_wall_p50_ms"`
	OpWallP90  float64 `json:"op_wall_p90_ms"`
	OpWallRate float64 `json:"op_wall_rate"`
	StealPct   float64 `json:"steal_pct"`
}

func main() {
	cfg := config{setups: 3}
	var traceFlag int
	var report bool
	var writeGolden string
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: sets request order and Zipf draws")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "timed wall seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: replay each op layer by layer and report per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for span files")
	flag.StringVar(&cfg.rev, "rev", "unknown", "source revision recorded with the result")
	flag.BoolVar(&report, "report", false, "run every workload untraced and traced and print a table")
	flag.StringVar(&writeGolden, "write-golden", "", "regenerate the golden digests into this file and exit")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	switch {
	case writeGolden != "":
		if err := writeGoldens(writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	case report:
		if err := runReport(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	default:
		out, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		line, _ := json.Marshal(map[string]env{"env": out.env})
		fmt.Println(string(line))
		line, _ = json.Marshal(out.res)
		fmt.Println(string(line))
	}
}

// checkCheckout fails fast outside a perfskel source tree: the workloads
// analyze internal/nas from source.
func checkCheckout() error {
	if _, err := os.Stat(filepath.Join(nasPkg, "nas.go")); err != nil {
		return fmt.Errorf("run from the root of a perfskel checkout: %w", err)
	}
	return nil
}

func currentEnv(cfg config, ops int) env {
	return env{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Ops: ops,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Rev: cfg.rev, CPU: cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runReport runs each workload as a child process, untraced and traced,
// and prints every metric with its unit and the share of failed ops.
func runReport(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadNames() {
		var untraced result
		for _, tr := range []int{0, 1} {
			args := []string{
				"--workload", name, "--seed", fmt.Sprint(cfg.seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(tr),
				"--out", cfg.out, "--rev", cfg.rev,
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", name, tr, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s trace=%d: %w", name, tr, err)
			}
			fmt.Printf("%s trace=%d: %d ops, %d failed (%.2f%%), correct=%v\n",
				name, tr, res.Attempted, res.Failed, 100*float64(res.Failed)/float64(res.Attempted), res.Correct)
			names := make([]string, 0, len(res.Metrics))
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				m := res.Metrics[n]
				fmt.Printf("  %-30s %14.4f %s\n", n, m.Value, m.Unit)
			}
			if tr == 0 {
				untraced = res
			} else if u, ok := untraced.Metrics["op_cpu_p50_ms"]; ok && u.Value > 0 {
				t := res.Metrics["bench.traced_op_cpu_p50_ms"].Value
				fmt.Printf("  tracing overhead on op_cpu_p50_ms: %+.1f%% (%.4f ms traced vs %.4f ms untraced)\n",
					100*(t-u.Value)/u.Value, t, u.Value)
			}
		}
	}
	return nil
}
