// Command perfbench is the repository's benchmark: it runs one
// workload against the simulator (internal/core) or a live memnet
// fleet (node, node/memnet, node/cluster), checks every output, and
// prints the metrics as the last line of standard output:
//
//	perfbench --workload sim-paper --seed 1 --seconds 50 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// attached. --trace 1 repeats the workload with a CPU profile, the
// simulator's obs metrics and the live tracing wrappers, and reports
// the per-layer metrics instead (metrics.go lists both sets and what
// each per-layer metric is expected to move). perfbench/run.sh builds
// and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// runConfig is what one invocation measures.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// traceDir receives the span file of a traced run ("" = none).
	traceDir string
}

// traceDir receives a traced run's span file, inside the build
// directory run.sh uses.
const traceDir = ".bench_build/traces"

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int64
	// failures lists every output check that did not hold.
	failures []error
	// metrics holds end-to-end values (untraced) or per-layer values
	// (traced), keyed by metric name.
	metrics map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func (o *outcome) fail(err error) {
	o.failures = append(o.failures, err)
	o.failed++
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
	// procs is the workload's GOMAXPROCS (capped at the host's CPUs).
	procs int
}

// live-query runs on one P: its closed-loop clients and the nodes they
// probe share the process, so with two Ps every probe is a cross-core
// goroutine hand-off, which on a 2-vCPU VM raised CPU per query from 32
// to 53 us and made p99 swing with the host's vCPU scheduling. The
// others keep a second P for the garbage collector, memnet's delivery
// timers and the open-loop generator.
var workloads = []workload{
	{"sim-paper", runSim, 2},
	{"sim-churn", runSim, 2},
	{"live-query", runLiveQuery, 1},
	{"live-flood", runLiveFlood, 2},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-paper, sim-churn, live-query or live-flood")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 50, "how long to measure")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}
	if cfg.trace {
		cfg.traceDir = traceDir
	}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := buildResult(out, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, f := range out.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// buildResult selects the reported metric set. Every declared metric
// must be present: a missing one is a benchmark bug, not a zero.
func buildResult(out *outcome, traced bool) (resultJSON, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not measured: %v", missing)
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	return res, nil
}
