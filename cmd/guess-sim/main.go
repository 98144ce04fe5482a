// Command guess-sim runs a single GUESS simulation and prints its
// metrics. All paper parameters (Tables 1 and 2) are exposed as flags.
// Interrupting a run (SIGINT) stops it cleanly and reports the partial
// measurements.
//
// Example:
//
//	guess-sim -network 1000 -cache 100 -query-pong MFS -cache-repl LFS
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	guess "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "guess-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	p := guess.DefaultConfig()
	fs := flag.NewFlagSet("guess-sim", flag.ContinueOnError)

	configPath := fs.String("config", "", "JSON file of parameters to load before applying flags")
	dumpConfig := fs.Bool("dump-config", false, "print the effective configuration as JSON and exit")
	tracePath := fs.String("trace", "", "write a CSV time series of the run to this file")
	traceQueries := fs.String("trace-queries", "", "write a JSONL per-query event trace to this file")
	metricsOut := fs.String("metrics-out", "", "write Prometheus-text metrics after the run to this file (\"-\" = stdout)")

	fs.IntVar(&p.NetworkSize, "network", p.NetworkSize, "number of live peers")
	fs.IntVar(&p.NetworkSize, "peers", p.NetworkSize, "alias for -network (million-peer runs read better)")
	fs.IntVar(&p.NumDesiredResults, "results", p.NumDesiredResults, "results needed to satisfy a query")
	fs.Float64Var(&p.LifespanMultiplier, "lifespan", p.LifespanMultiplier, "lifespan multiplier")
	fs.Float64Var(&p.QueryRate, "query-rate", p.QueryRate, "queries per user per second")
	fs.IntVar(&p.MaxProbesPerSecond, "capacity", p.MaxProbesPerSecond, "max probes/second a peer handles (0 = unlimited)")
	fs.Float64Var(&p.PercentBadPeers, "bad", p.PercentBadPeers, "percentage of malicious peers")
	badPong := fs.String("bad-pong", "Dead", "malicious pong behavior: Dead, Bad, or Good")

	queryProbe := fs.String("query-probe", p.QueryProbe.String(), "QueryProbe policy (Random, MRU, LRU, MFS, MR, MR*)")
	queryPong := fs.String("query-pong", p.QueryPong.String(), "QueryPong policy")
	pingProbe := fs.String("ping-probe", p.PingProbe.String(), "PingProbe policy")
	pingPong := fs.String("ping-pong", p.PingPong.String(), "PingPong policy")
	cacheRepl := fs.String("cache-repl", p.CacheReplacement.String(), "CacheReplacement policy (Random, LRU, MRU, LFS, LR, LR*)")

	fs.Float64Var(&p.PingInterval, "ping-interval", p.PingInterval, "seconds between pings")
	fs.IntVar(&p.CacheSize, "cache", p.CacheSize, "link cache capacity")
	fs.BoolVar(&p.ResetNumResults, "reset-numres", p.ResetNumResults, "zero NumRes of pong-learned entries")
	fs.BoolVar(&p.DoBackoff, "backoff", p.DoBackoff, "back off from overloaded peers instead of evicting")
	fs.Float64Var(&p.BackoffPeriod, "backoff-period", p.BackoffPeriod, "backoff seconds")
	fs.IntVar(&p.PongSize, "pong-size", p.PongSize, "addresses per pong")
	fs.Float64Var(&p.IntroProb, "intro-prob", p.IntroProb, "introduction probability")
	fs.IntVar(&p.CacheSeedSize, "seed-size", p.CacheSeedSize, "initial cache seed entries (0 = network/100)")

	fs.Float64Var(&p.ProbeSpacing, "probe-spacing", p.ProbeSpacing, "seconds between probe rounds")
	fs.IntVar(&p.ParallelProbes, "parallel", p.ParallelProbes, "probes per round (parallel walks)")
	fs.IntVar(&p.MaxProbesPerQuery, "max-probes", p.MaxProbesPerQuery, "probe cap per query (0 = exhaustive)")
	queries := fs.Bool("queries", true, "enable query traffic")

	fs.Uint64Var(&p.Seed, "seed", p.Seed, "random seed")
	fs.Float64Var(&p.WarmupTime, "warmup", p.WarmupTime, "warmup seconds (simulated)")
	fs.Float64Var(&p.MeasureTime, "measure", p.MeasureTime, "measurement seconds (simulated)")
	fs.BoolVar(&p.SampleConnectivity, "connectivity", p.SampleConnectivity, "sample overlay connectivity")

	// Two-pass parse so -config loads first and explicit flags still
	// override it.
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		p = guess.DefaultConfig()
		if err := json.Unmarshal(data, &p); err != nil {
			return fmt.Errorf("parsing %s: %w", *configPath, err)
		}
		if err := fs.Parse(args); err != nil {
			return err
		}
	}

	// String-valued flags must not clobber a loaded config with their
	// defaults: apply them only when explicitly set (or when no config
	// was given).
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	apply := func(name string) bool { return *configPath == "" || explicit[name] }

	var err error
	if apply("query-probe") {
		if p.QueryProbe, err = guess.ParseSelection(*queryProbe); err != nil {
			return err
		}
	}
	if apply("query-pong") {
		if p.QueryPong, err = guess.ParseSelection(*queryPong); err != nil {
			return err
		}
	}
	if apply("ping-probe") {
		if p.PingProbe, err = guess.ParseSelection(*pingProbe); err != nil {
			return err
		}
	}
	if apply("ping-pong") {
		if p.PingPong, err = guess.ParseSelection(*pingPong); err != nil {
			return err
		}
	}
	if apply("cache-repl") {
		if p.CacheReplacement, err = guess.ParseEviction(*cacheRepl); err != nil {
			return err
		}
	}
	if apply("bad-pong") {
		if p.BadPong, err = guess.ParseBadPongBehavior(*badPong); err != nil {
			return err
		}
	}
	if apply("queries") {
		p.QueriesEnabled = *queries
	}

	if *dumpConfig {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(p)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		p.Trace = f
	}

	var opts []guess.Option
	reg := guess.NewMetricsRegistry()
	if *metricsOut != "" {
		opts = append(opts, guess.WithMetrics(reg))
	}
	var qtrace *guess.TraceWriter
	if *traceQueries != "" {
		f, err := os.Create(*traceQueries)
		if err != nil {
			return err
		}
		defer f.Close()
		qtrace = guess.NewTraceWriter(f).Mask(guess.TraceQueryEvents)
		opts = append(opts, guess.WithObserver(qtrace))
	}

	// SIGINT cancels the run; guess.Run then returns the partial
	// measurements with Interrupted set.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	res, err := guess.Run(ctx, p, opts...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if qtrace != nil {
		if err := qtrace.Err(); err != nil {
			return fmt.Errorf("writing query trace: %w", err)
		}
	}
	if *metricsOut != "" {
		out := os.Stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := reg.WritePrometheus(out); err != nil {
			return err
		}
	}

	fmt.Printf("GUESS simulation: %d peers, cache %d, policies QP=%s QPong=%s PP=%s PPong=%s CR=%s\n",
		p.NetworkSize, p.CacheSize, p.QueryProbe, p.QueryPong, p.PingProbe, p.PingPong, p.CacheReplacement)
	fmt.Printf("simulated %.0fs (warmup %.0fs) in %v", p.MeasureTime, p.WarmupTime, elapsed.Round(time.Millisecond))
	if rss := peakRSSBytes(); rss > 0 {
		fmt.Printf(", peak RSS %.1f MiB", float64(rss)/(1<<20))
	}
	fmt.Println()
	if res.Interrupted {
		fmt.Printf("interrupted: partial results up to the cancellation point\n")
	}
	fmt.Println()

	if p.QueriesEnabled {
		fmt.Printf("queries:            %d completed (%d satisfied, %d unsatisfied, %d aborted)\n",
			res.Queries, res.Satisfied, res.Unsatisfied, res.Aborted)
		fmt.Printf("unsatisfaction:     %.3f\n", res.Unsatisfaction())
		fmt.Printf("probes/query:       %.1f (good %.1f, dead %.1f, refused %.1f)\n",
			res.ProbesPerQuery(), res.GoodProbesPerQuery(), res.DeadProbesPerQuery(), res.RefusedProbesPerQuery())
		fmt.Printf("avg response time:  %.2fs\n", res.AvgResponseTime())
	}
	fmt.Printf("pings:              %d (%d to dead peers)\n", res.Pings, res.DeadPings)
	fmt.Printf("cache entries:      %.1f held, %.1f live (fraction live %.3f)\n",
		res.AvgCacheEntries, res.AvgLiveEntries, res.AvgLiveFraction)
	if p.PercentBadPeers > 0 {
		fmt.Printf("good cache entries: %.1f\n", res.AvgGoodEntries)
	}
	if p.SampleConnectivity {
		fmt.Printf("largest WCC:        %.1f avg, %d final (of %d peers)\n",
			res.AvgLargestWCC, res.FinalLargestWCC, p.NetworkSize)
	}
	fmt.Printf("churn:              %d births, %d deaths\n", res.Births, res.Deaths)
	return nil
}
