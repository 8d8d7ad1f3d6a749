// Command perfbench is the repository benchmark. Each workload generates
// its inputs from -seed, runs the system under test through its public
// entry points, checks every output, and prints one JSON result line:
//
//	perfbench -workload orient-regular -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, taken from spans the benchmark
// records around its calls into each module. run.sh builds this binary
// and td-serve and then runs it; NOTES.md explains the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported quantity with its unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, the same on every
// workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// modules are the layers self time is attributed to.
var modules = []string{"graph", "orient", "assign", "core", "mp", "resolver", "td-serve", "client"}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a module the workload does not call reports 0.
var perLayer = func() []metric {
	m := []metric{
		{"op.samples", "count"},
		{"op.p99_ms", "ms"},
		{"op.wall_p50_ms", "ms"},
		{"op.stolen_ms", "ms"},
		{"graph.build_ms", "ms"},
		{"graph.bipartite_gen_ms", "ms"},
	}
	for _, l := range []string{"orient", "assign"} {
		m = append(m,
			metric{l + ".phase1_ms", "ms"},
			metric{l + ".phase_ms.p50", "ms"},
			metric{l + ".tail_ms", "ms"},
			metric{l + ".phases", "count"},
			metric{l + ".rounds", "count"},
			metric{l + ".speedup_2v1", "x"},
			metric{l + ".alloc_mb_per_op", "MB"},
		)
	}
	m = append(m,
		metric{"core.solve_ms", "ms"},
		metric{"core.rounds", "count"},
		metric{"core.messages", "count"},
		metric{"core.moves", "count"},
		metric{"core.alloc_mb_per_op", "MB"},
		metric{"mp.encode_ms", "ms"},
		metric{"mp.decode_ms", "ms"},
		metric{"mp.spawn_ms", "ms"},
		metric{"mp.worker.setup_ms", "ms"},
		metric{"mp.worker.wait_ms", "ms"},
		metric{"mp.worker.busy_ms", "ms"},
		metric{"mp.wire_bytes_per_round", "bytes"},
		metric{"mp.frames_per_round", "count"},
		metric{"mp.restarts", "count"},
		metric{"mp.overhead_ms", "ms"},
		metric{"resolver.boot_ms", "ms"},
		metric{"resolver.delta_us.p50", "us"},
		metric{"resolver.delta_us.p99", "us"},
		metric{"resolver.moves_per_delta", "count"},
		metric{"resolver.full_solves", "count"},
		metric{"resolver.rollbacks", "count"},
		metric{"td-serve.http_us.p50", "us"},
		metric{"td-serve.delta_us.p99", "us"},
		metric{"td-serve.stats_us.p50", "us"},
		metric{"td-serve.cpu_us_per_delta", "us"},
		metric{"client.cpu_us_per_delta", "us"},
		metric{"td-serve.refused", "count"},
		metric{"td-serve.shed", "count"},
		metric{"td-serve.timeouts", "count"},
		metric{"host.steal_pct", "%"},
		metric{"host.cal_ms", "ms"},
	)
	for _, mod := range modules {
		m = append(m, metric{mod + ".self_ms", "ms"})
	}
	return append(m,
		metric{"trace.overhead_pct", "%"},
		metric{"trace.unattributed_pct", "%"},
	)
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"orient-regular":  orientRegular,
	"assign-powerlaw": assignPowerlaw,
	"game-mp":         gameMP,
	"serve-churn":     serveChurn,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for binaries, traces and count records

	tr        *tracer // nil in untraced runs
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	host      hostInfo
}

// fail counts one failed op and keeps the first few reasons for stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if os.Getenv(workerEnv) != "" {
		os.Exit(workerMain())
	}
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for built binaries, traces and count records")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	abs, err := filepath.Abs(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: abs,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if r.trace {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.host = probeHost(filepath.Dir(r.out))
	fmt.Println(r.host.provenance())

	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", f)
	}
	fmt.Println(r.host.diagnostics())
	if r.trace {
		r.layer["host.steal_pct"] = r.host.stealPct
		r.layer["host.cal_ms"] = r.host.calMs
		r.tr.summarize(r.layer)
		if err := r.tr.write(filepath.Join(r.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
	}
	line, err := r.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result renders the final JSON line: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one, every value
// finite.
func (r *run) result() ([]byte, error) {
	defs, vals := endToEnd, r.e2e
	if r.trace {
		defs, vals = perLayer, r.layer
	}
	res := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(res)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
