package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// simBand is a reference range for a seed-dependent simulator output,
// measured over many seeds and widened by a margin: wide enough that a
// legitimate change to RNG draw order passes, narrow enough that a
// fast-but-wrong engine does not.
type simBand struct {
	satLo, satHi float64 // Satisfied / Queries
	ppqLo, ppqHi float64 // probes per query
}

// simWorkloads are the simulator workloads. Over 32 seeds sim-paper
// gave satisfaction 0.9539-0.9598 and 78.5-101.0 probes/query; over 23
// seeds sim-churn gave 1.0 and 22.5-25.1.
var simWorkloads = map[string]struct {
	params func() core.Params
	band   simBand
}{
	// The paper's Tables 1-2: full 100-entry caches and ~95
	// probes/query put the CPU in cache and the query maps of core.
	"sim-paper": {core.DefaultParams, simBand{0.945, 0.970, 70, 115}},
	// A 100k-peer churning network (BenchmarkLargeRun's shards=1
	// config): births, library regeneration and union-find scans put
	// the CPU in content, dist, eventq and overlay; cache stays small.
	"sim-churn": {func() core.Params {
		p := core.DefaultParams()
		p.NetworkSize = 100_000
		p.CacheSize = 32
		p.WarmupTime = 20
		p.MeasureTime = 60
		p.QueryRate = 0.0005
		p.SampleInterval = 10
		p.SampleConnectivity = true
		return p
	}, simBand{0.995, 1, 20, 28}},
}

// simSetups is how many core.New calls feed the setup_s median.
const simSetups = 20

// repSeed derives the seed of a run's rep-th repetition.
func repSeed(seed uint64, rep int) uint64 { return seed*1000 + uint64(rep) + 1 }

// checkSim verifies one run's Results against the engine's accounting
// invariants and the workload's reference band.
func checkSim(p core.Params, r *core.Results, band simBand) error {
	switch {
	case r.Interrupted:
		return fmt.Errorf("seed %d: run interrupted", p.Seed)
	case r.Queries == 0:
		return fmt.Errorf("seed %d: no queries completed", p.Seed)
	case r.Satisfied+r.Unsatisfied != r.Queries:
		return fmt.Errorf("seed %d: satisfied %d + unsatisfied %d != queries %d", p.Seed, r.Satisfied, r.Unsatisfied, r.Queries)
	case r.ProbesTotal != r.GoodProbes+r.DeadProbes+r.RefusedProbes:
		return fmt.Errorf("seed %d: probes %d != good %d + dead %d + refused %d", p.Seed, r.ProbesTotal, r.GoodProbes, r.DeadProbes, r.RefusedProbes)
	case r.Births != r.Deaths+p.NetworkSize:
		// Every initial peer is a birth; each death is replaced by one.
		return fmt.Errorf("seed %d: births %d != deaths %d + network size %d", p.Seed, r.Births, r.Deaths, p.NetworkSize)
	}
	sat := float64(r.Satisfied) / float64(r.Queries)
	if sat < band.satLo || sat > band.satHi {
		return fmt.Errorf("seed %d: satisfaction %.4f outside [%.3f, %.3f]", p.Seed, sat, band.satLo, band.satHi)
	}
	if ppq := r.ProbesPerQuery(); ppq < band.ppqLo || ppq > band.ppqHi {
		return fmt.Errorf("seed %d: probes/query %.2f outside [%.1f, %.1f]", p.Seed, ppq, band.ppqLo, band.ppqHi)
	}
	return nil
}

// simRep is one measured Engine.Run.
type simRep struct {
	res  core.Results
	wall time.Duration
	cpu  time.Duration
}

// runSimRep builds and runs one engine; met, when non-nil, is
// attached (traced runs only).
func runSimRep(p core.Params, met *obs.SimMetrics) (simRep, error) {
	e, err := core.New(p)
	if err != nil {
		return simRep{}, err
	}
	e.SetMetrics(met)
	c0, w0 := cpuTime(), time.Now()
	res, err := e.Run(context.Background())
	if err != nil {
		return simRep{}, err
	}
	rep := simRep{res: *res, wall: time.Since(w0), cpu: cpuTime() - c0}
	// Run returns a pointer into the engine, and PeerLoads aliases its
	// arrays: keep a copy without them so the engine can be freed.
	rep.res.PeerLoads = nil
	return rep, nil
}

// runSimReps runs repetitions for about d (at least one): another
// starts only if it is expected to end less than half a repetition
// past d. Each is checked.
func runSimReps(w string, seed uint64, d time.Duration, met *obs.SimMetrics, out *outcome) ([]simRep, error) {
	spec := simWorkloads[w]
	var reps []simRep
	start := time.Now()
	for rep := 0; len(reps) == 0 || time.Since(start)+time.Since(start)/time.Duration(2*len(reps)) < d; rep++ {
		// Return the previous repetition's engine to the OS first, so
		// each one starts from the same heap and peak RSS is one
		// engine's.
		debug.FreeOSMemory()
		p := spec.params()
		p.Seed = repSeed(seed, rep)
		r, err := runSimRep(p, met)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if err := checkSim(p, &r.res, spec.band); err != nil {
			out.fail(err)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

func runSim(cfg runConfig) (*outcome, error) {
	spec := simWorkloads[cfg.workload]
	out := &outcome{metrics: make(map[string]float64)}
	if cfg.trace {
		return out, traceSim(cfg, out)
	}
	var setups []float64
	for i := 0; i < simSetups; i++ {
		p := spec.params()
		p.Seed = repSeed(cfg.seed, i)
		// Time New from a heap returned to the OS, as in a fresh
		// process: on a merely collected heap the background
		// scavenger returns pages between calls, so later calls
		// page-fault more and the median drifted 3-19 ms within a run.
		debug.FreeOSMemory()
		t0 := time.Now()
		if _, err := core.New(p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	reps, err := runSimReps(cfg.workload, cfg.seed, cfg.seconds, nil, out)
	if err != nil {
		return nil, err
	}

	var qps, usPerQ, cpuPerQ []float64
	var queries, satisfied int
	for _, r := range reps {
		q := float64(r.res.Queries)
		qps = append(qps, q/r.wall.Seconds())
		usPerQ = append(usPerQ, float64(r.wall.Microseconds())/q)
		cpuPerQ = append(cpuPerQ, float64(r.cpu.Microseconds())/q)
		queries += r.res.Queries
		satisfied += r.res.Satisfied
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["queries_per_s"] = median(qps)
	m["query_p50_us"] = median(usPerQ)
	m["query_p99_us"] = quantile(usPerQ, 0.99)
	m["cpu_us_per_query"] = median(cpuPerQ)
	m["ok_frac"] = float64(satisfied) / float64(queries)
	m["peak_rss_mb"] = peakRSSMB()
	out.notef("%s: %d repetitions, %d simulated queries, %d setups", cfg.workload, len(reps), queries, len(setups))
	return out, nil
}

// traceSim runs the untraced reference repetition and then the same
// seed with a CPU profile and obs.SimMetrics attached.
func traceSim(cfg runConfig, out *outcome) error {
	half := cfg.seconds / 2
	plain, err := runSimReps(cfg.workload, cfg.seed, half, nil, out)
	if err != nil {
		return err
	}
	met := obs.NewSimMetrics(obs.NewRegistry())
	tr, err := startTrace(cfg)
	if err != nil {
		return err
	}
	traced, err := runSimReps(cfg.workload, cfg.seed, half, met, out)
	if err != nil {
		tr.abort()
		return err
	}
	for _, r := range traced {
		tr.span("engine.run", r.res.Queries, r.wall)
	}
	var tracedQueries, plainQueries int
	var tracedCPU, plainCPU time.Duration
	var samples int
	for _, r := range traced {
		tracedQueries += r.res.Queries
		tracedCPU += r.cpu
		samples += r.res.ConnectivityRuns
	}
	for _, r := range plain {
		plainQueries += r.res.Queries
		plainCPU += r.cpu
	}
	m := newLayerMetrics()
	att, err := tr.finish(m, float64(tracedQueries))
	if err != nil {
		return err
	}
	out.metrics = m
	probes := float64(met.Probes.Value())
	m["core.queries"] = float64(met.Queries.Value())
	m["core.probes"] = probes
	m["core.pings"] = float64(met.Pings.Value())
	m["core.births"] = float64(met.Births.Value())
	if probes > 0 {
		m["core.good_probe_frac"] = float64(met.GoodProbes.Value()) / probes
		m["cache.ns_per_probe"] = float64(att.Nanos["cache"]) / probes
	}
	m["cache.evictions"] = float64(met.CacheEvictions.Value())
	m["overlay.samples"] = float64(samples)
	if b := float64(met.Births.Value()); b > 0 {
		m["content.us_per_birth"] = float64(att.Nanos["content"]+att.Nanos["dist"]) / 1e3 / b
	}
	if samples > 0 {
		m["overlay.ms_per_sample"] = float64(att.Nanos["overlay"]) / 1e6 / float64(samples)
	}
	m["bench.trace_overhead_frac"] = overhead(plainCPU, plainQueries, tracedCPU, tracedQueries)
	out.notef("%s traced: %d+%d repetitions; profile %.2fs CPU", cfg.workload, len(plain), len(traced), float64(att.TotalNanos)/1e9)
	return nil
}

// overhead is the relative CPU-per-query cost of tracing.
func overhead(plainCPU time.Duration, plainN int, tracedCPU time.Duration, tracedN int) float64 {
	if plainN == 0 || tracedN == 0 || plainCPU == 0 {
		return 0
	}
	return (tracedCPU.Seconds()/float64(tracedN))/(plainCPU.Seconds()/float64(plainN)) - 1
}
