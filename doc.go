// Package guess is a from-scratch reproduction of "Evaluating GUESS and
// Non-Forwarding Peer-to-Peer Search" (Yang, Vinograd, Garcia-Molina;
// ICDCS 2004).
//
// GUESS is a non-forwarding search protocol for unstructured
// peer-to-peer networks: instead of flooding queries through an
// overlay, each peer keeps a cache of pointers to other peers and
// probes them directly, one (or a few) at a time, until it has enough
// results. The paper shows that this gives fine-grained control over
// query cost — over an order of magnitude cheaper than fixed-extent
// flooding — but that performance, fairness and robustness depend
// critically on the policies used to order probes, build pongs, and
// replace cache entries.
//
// This package is the public façade over the full simulation stack:
//
//   - Run executes one GUESS simulation from a Config (the paper's
//     Tables 1 and 2 parameters) and returns Results; the context
//     cancels it cooperatively (partial Results, Interrupted set),
//     and functional options attach observability — WithMetrics
//     fills a MetricsRegistry, WithObserver streams TraceEvents
//     (e.g. into a TraceWriter for JSONL), WithProgress logs
//     periodic status lines;
//   - RunExperiment regenerates any table or figure from the paper's
//     evaluation section (Table 3, Figures 3-21) — see ExperimentIDs;
//     LookupExperiment returns the typed Experiment handle behind it,
//     whose sweep specs (ExperimentSpec, ExperimentPoint) are plain
//     data — inspectable, serializable, and executable out of process;
//   - the policy constants (Random, MRU, LRU, MFS, MR, MRStar and the
//     eviction counterparts) name the five policy families studied.
//
// A minimal session:
//
//	cfg := guess.DefaultConfig()
//	cfg.QueryPong = guess.MFS
//	cfg.CacheReplacement = guess.EvictLFS
//	res, err := guess.Run(context.Background(), cfg)
//	if err != nil { ... }
//	fmt.Printf("%.1f probes/query, %.1f%% unsatisfied\n",
//		res.ProbesPerQuery(), 100*res.Unsatisfaction())
//
// Run's signature changed when the observability layer landed: it now
// takes a context and variadic options where it took a bare Config.
// Code written against the old shape passes context.Background() and
// moves its progress writer into WithProgress; README.md has the
// migration table. See README.md, "Observability", for the metric and
// trace schemas.
//
// The experiment runner likewise moved from a string-keyed entry point
// to a typed one: code that called the former internal
// experiments.Run(id, opts) moves to LookupExperiment(id) followed by
// Experiment.Run — the lookup separates "does this artifact exist"
// from "did the sweep succeed", and the handle exposes the sweep's
// typed specs.
// Distribution rides on the same types: set ExperimentOptions.Executor
// to a coordinator or worker pool (internal/orchestrate, cmd/guess-sweep)
// and the sweep fans out across workers while producing byte-identical
// artifacts. See README.md, "Distributed sweeps".
//
// The substrates live in internal packages: the discrete-event engine
// (internal/core), the content and churn models (internal/content,
// internal/lifetime), the policy implementations (internal/policy), the
// forwarding baselines (internal/gnutella), and the per-figure
// experiment harness (internal/experiments).
package guess
