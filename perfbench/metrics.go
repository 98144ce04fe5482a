package main

// The metric map. BENCHMARK.json declares the same names, units and
// directions (TestBenchmarkJSONMatchesMetricMap keeps the two equal);
// this file also records, for each per-layer metric, the module it
// measures and the end-to-end metric and workload it is expected to
// move, so a speed claim can be traced to its layer.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end only) is the share of the parent's median by
	// which the metric may worsen before a change is a regression.
	Bound float64
	// Layer (per-layer only) is the module path measured.
	Layer string
	// Moves names the end-to-end metric and workload(s) the per-layer
	// metric should move; Def says how it is measured.
	Moves string
	Def   string
}

// endToEnd is reported by every untraced run, on every workload. An
// operation is a query: a simulated query in sim-*, a node.Query call
// in live-*.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "median of repeated set-ups: sim = core.New, each from a heap returned to the OS; live = fleet start until every node's cache holds every other node (and, in live-flood, every SyncClient has left fallback)"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "sim = completed simulated queries per wall second of Engine.Run (median over repetitions; moves exactly with peer-seconds per second); live-query = queries with a verified hit per second; live-flood = satisfied light queries per second"},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Def: "live-query = call to return; live-flood = due time to return, failures counted as over any limit; sim = wall µs of Engine.Run per completed query, median over repetitions"},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.25,
		Def: "as query_p50_us, 99th percentile (sim: over repetitions); the sample count is printed before the result"},
	{Name: "ok_frac", Unit: "fraction", Better: "higher", Bound: 0.05,
		Def: "queries satisfied (live: with a verified hit, without error, before the deadline) / queries attempted; 1 - fail_frac"},
	{Name: "cpu_us_per_query", Unit: "us", Better: "lower", Bound: 0.25,
		Def: "process user+sys CPU over the query phase (after live-flood's warm-up) / queries attempted"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Def: "ru_maxrss of the process, which ran only this workload"},
}

const (
	onSimPaper = "sim-paper"
	onSimChurn = "sim-churn"
	onSims     = "sim-paper, sim-churn"
	onLive     = "live-query, live-flood"
	onFlood    = "live-flood"
	onAll      = "all"
)

// selfFrac builds a profile-share metric for a layer.
func selfFrac(layer, module, moves string) metricDef {
	return metricDef{Name: layer + ".self_frac", Unit: "fraction", Better: "lower", Layer: module, Moves: moves,
		Def: "share of CPU profile samples whose innermost program frame is in " + module}
}

// perLayer is reported by every traced run; a metric whose layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	selfFrac("core", "repro/internal/core", "queries_per_s on "+onSimPaper),
	selfFrac("eventq", "repro/internal/eventq", "queries_per_s on "+onSims),
	selfFrac("cache", "repro/internal/cache", "queries_per_s on "+onSimPaper),
	selfFrac("policy", "repro/internal/policy", "queries_per_s on "+onSimPaper),
	selfFrac("content", "repro/internal/content", "queries_per_s on "+onSimChurn),
	selfFrac("dist", "repro/internal/dist", "queries_per_s on "+onSimChurn),
	selfFrac("overlay", "repro/internal/overlay", "queries_per_s on "+onSimChurn),
	selfFrac("simrng", "repro/internal/simrng", "queries_per_s on "+onSims),
	selfFrac("lifetime", "repro/internal/lifetime", "queries_per_s on "+onSimChurn),
	selfFrac("workload", "repro/internal/workload", "queries_per_s on "+onSims),
	selfFrac("node.serve", "repro/node (serve.go)", "cpu_us_per_query, query_p50_us on "+onLive),
	selfFrac("node.client", "repro/node (client.go)", "cpu_us_per_query on "+onLive),
	selfFrac("node.admission", "repro/node (admission.go)", "cpu_us_per_query on "+onFlood),
	selfFrac("node.health", "repro/node (health.go)", "cpu_us_per_query on "+onFlood),
	selfFrac("node.other", "repro/node (other files)", "cpu_us_per_query on "+onLive),
	selfFrac("wire", "repro/internal/wire", "cpu_us_per_query on "+onLive),
	selfFrac("memnet", "repro/node/memnet", "cpu_us_per_query on "+onLive),
	selfFrac("cluster", "repro/node/cluster", "cpu_us_per_query on "+onFlood),
	selfFrac("frame", "repro/internal/frame", "cpu_us_per_query on "+onFlood),
	selfFrac("obs", "repro/internal/obs", "cpu_us_per_query on "+onLive+"; queries_per_s on "+onSims+" once the engine is instrumented"),
	selfFrac("runtime", "runtime (samples with no program frame)", "cpu_us_per_query on "+onLive+"; peak_rss_mb on "+onSimChurn),
	selfFrac("bench", "repro/perfbench (load generators, checks, tracing wrappers)", "nothing: harness cost"),
	selfFrac("other", "other repro packages", "nothing expected"),

	{Name: "core.queries", Unit: "count", Better: "higher", Layer: "repro/internal/core", Moves: "queries_per_s on " + onSims,
		Def: "obs.SimMetrics Queries over the traced repetitions (exact per seed)"},
	{Name: "core.probes", Unit: "count", Better: "lower", Layer: "repro/internal/core", Moves: "queries_per_s on " + onSimPaper,
		Def: "obs.SimMetrics Probes (exact)"},
	{Name: "core.pings", Unit: "count", Better: "lower", Layer: "repro/internal/core", Moves: "queries_per_s on " + onSims,
		Def: "obs.SimMetrics Pings (exact)"},
	{Name: "core.births", Unit: "count", Better: "lower", Layer: "repro/internal/core", Moves: "queries_per_s on " + onSimChurn,
		Def: "obs.SimMetrics Births (exact)"},
	{Name: "core.good_probe_frac", Unit: "fraction", Better: "higher", Layer: "repro/internal/core", Moves: "ok_frac on " + onSims + "; a speed-only change must not move it",
		Def: "good probes / probes (exact)"},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Layer: "repro/internal/cache", Moves: "queries_per_s on " + onSimPaper,
		Def: "obs.SimMetrics CacheEvictions (exact)"},
	{Name: "overlay.samples", Unit: "count", Better: "lower", Layer: "repro/internal/overlay", Moves: "queries_per_s on " + onSimChurn,
		Def: "Results.ConnectivityRuns (exact)"},
	{Name: "cache.ns_per_probe", Unit: "ns", Better: "lower", Layer: "repro/internal/cache", Moves: "queries_per_s on " + onSimPaper,
		Def: "cache self CPU / probes"},
	{Name: "content.us_per_birth", Unit: "us", Better: "lower", Layer: "repro/internal/content", Moves: "queries_per_s on " + onSimChurn,
		Def: "content+dist self CPU / births"},
	{Name: "overlay.ms_per_sample", Unit: "ms", Better: "lower", Layer: "repro/internal/overlay", Moves: "queries_per_s on " + onSimChurn,
		Def: "overlay self CPU / connectivity samples"},

	{Name: "runtime.mallocs", Unit: "count", Better: "lower", Layer: "runtime", Moves: "peak_rss_mb, queries_per_s on " + onSimChurn,
		Def: "heap objects allocated during the traced interval (runtime/metrics)"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "peak_rss_mb on " + onSimChurn,
		Def: "heap bytes allocated during the traced interval"},
	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: "lower", Layer: "runtime", Moves: "cpu_us_per_query on " + onAll,
		Def: "GC CPU / total CPU during the traced interval (runtime/metrics cpu classes)"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "peak_rss_mb on " + onSimChurn,
		Def: "highest live-heap sample (20 ms polling) during the traced interval"},
	{Name: "runtime.mallocs_per_query", Unit: "count", Better: "lower", Layer: "runtime", Moves: "cpu_us_per_query on " + onLive,
		Def: "runtime.mallocs / queries attempted"},

	{Name: "memnet.datagrams_per_query", Unit: "count", Better: "lower", Layer: "repro/node/memnet", Moves: "cpu_us_per_query on " + onLive,
		Def: "datagrams written by fleet nodes / queries attempted (PacketConn wrapper)"},
	{Name: "memnet.ping_per_query", Unit: "count", Better: "lower", Layer: "repro/internal/wire", Moves: "cpu_us_per_query on " + onLive, Def: "Ping datagrams / query"},
	{Name: "memnet.pong_per_query", Unit: "count", Better: "lower", Layer: "repro/internal/wire", Moves: "cpu_us_per_query on " + onLive, Def: "Pong datagrams / query"},
	{Name: "memnet.query_per_query", Unit: "count", Better: "lower", Layer: "repro/internal/wire", Moves: "cpu_us_per_query on " + onLive, Def: "Query datagrams / query"},
	{Name: "memnet.queryhit_per_query", Unit: "count", Better: "lower", Layer: "repro/internal/wire", Moves: "cpu_us_per_query on " + onLive, Def: "QueryHit datagrams / query"},
	{Name: "memnet.busy_per_query", Unit: "count", Better: "lower", Layer: "repro/internal/wire", Moves: "cpu_us_per_query on " + onFlood, Def: "Busy datagrams / query"},
	{Name: "memnet.busy_frac", Unit: "fraction", Better: "lower", Layer: "repro/node/memnet", Moves: "ok_frac on " + onFlood, Def: "Busy datagrams / datagrams written by fleet nodes"},
	{Name: "memnet.queue_wait_us_p50", Unit: "us", Better: "lower", Layer: "repro/node/memnet", Moves: "query_p50_us on " + onLive,
		Def: "sender WriteTo to receiver ReadFrom return, matched on (from, to, MsgID)"},
	{Name: "memnet.queue_wait_us_p99", Unit: "us", Better: "lower", Layer: "repro/node/memnet", Moves: "query_p99_us on " + onLive, Def: "as above, 99th percentile"},
	{Name: "memnet.queue_drops", Unit: "count", Better: "lower", Layer: "repro/node/memnet", Moves: "ok_frac on " + onFlood, Def: "memnet Stats.QueueDrop over the traced interval"},

	{Name: "node.serve.busy_us_p50", Unit: "us", Better: "lower", Layer: "repro/node (serve.go)", Moves: "query_p50_us on " + onLive,
		Def: "per inbound datagram: ReadFrom return to the next ReadFrom call (serveLoop is the socket's only reader)"},
	{Name: "node.serve.busy_us_p99", Unit: "us", Better: "lower", Layer: "repro/node (serve.go)", Moves: "query_p99_us on " + onLive, Def: "as above, 99th percentile"},
	{Name: "node.serve.util_max", Unit: "fraction", Better: "lower", Layer: "repro/node (serve.go)", Moves: "queries_per_s ceiling on live-query",
		Def: "busiest node's serve busy time / wall time"},
	{Name: "node.client.probes_per_query", Unit: "count", Better: "lower", Layer: "repro/node (client.go)", Moves: "query_p50_us on " + onLive, Def: "QueryStats.Probes / query"},
	{Name: "node.client.retries_per_query", Unit: "count", Better: "lower", Layer: "repro/node (client.go)", Moves: "query_p99_us on " + onLive, Def: "QueryStats.Retries / query"},
	{Name: "node.client.self_us", Unit: "us", Better: "lower", Layer: "repro/node (client.go)", Moves: "query_p50_us on " + onLive,
		Def: "median of query span minus its probe child spans"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower", Layer: "repro/internal/wire", Moves: "cpu_us_per_query on " + onLive,
		Def: "wire.Decode per datagram, replaying the captured datagram mix"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower", Layer: "repro/internal/wire", Moves: "cpu_us_per_query on " + onLive,
		Def: "wire.Encode per message, replaying the captured datagram mix"},

	{Name: "node.admission.shed_frac", Unit: "fraction", Better: "higher", Layer: "repro/node (admission.go)", Moves: "ok_frac, query_p99_us on " + onFlood,
		Def: "Stats.ProbesRefused / probes received by fleet nodes"},
	{Name: "node.admission.light_refused", Unit: "count", Better: "lower", Layer: "repro/node (admission.go)", Moves: "ok_frac, query_p99_us on " + onFlood,
		Def: "Busy replies received by the querying nodes (light GUESS traffic)"},
	{Name: "node.admission.rotator_served_frac", Unit: "fraction", Better: "lower", Layer: "repro/node (admission.go)", Moves: "ok_frac on " + onFlood,
		Def: "share of the rotating heavy requester's probes that were served"},
	{Name: "node.health.demotions", Unit: "count", Better: "lower", Layer: "repro/node (health.go)", Moves: "ok_frac, query_p99_us on " + onFlood,
		Def: "Stats.BusyBackoffs summed over the fleet"},

	{Name: "cluster.rounds_per_s", Unit: "1/s", Better: "higher", Layer: "repro/node/cluster", Moves: "ok_frac on " + onFlood,
		Def: "TakeAdmissionDelta calls through the SyncTarget wrapper per second, summed over nodes"},
	{Name: "cluster.rtt_us_p50", Unit: "us", Better: "lower", Layer: "repro/node/cluster", Moves: "ok_frac on " + onFlood,
		Def: "Dial-conn wrapper: write to the next read's return"},
	{Name: "cluster.rtt_us_p99", Unit: "us", Better: "lower", Layer: "repro/node/cluster", Moves: "ok_frac on " + onFlood, Def: "as above, 99th percentile"},
	{Name: "cluster.fallback_frac", Unit: "fraction", Better: "lower", Layer: "repro/node/cluster", Moves: "ok_frac on " + onFlood,
		Def: "share of 10 ms status polls that found a SyncClient in fallback"},
	{Name: "gen.lag_p99_ms", Unit: "ms", Better: "lower", Layer: "repro/perfbench", Moves: "query_p99_us on " + onFlood,
		Def: "99th percentile of how late the open-loop generator started a query"},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower", Layer: "repro/perfbench", Moves: "nothing: tracing cost",
		Def: "traced cpu_us_per_query / untraced cpu_us_per_query - 1, both measured in the traced run's process on the same seed"},
}

// newLayerMetrics returns every per-layer metric at 0, for a workload
// to fill in the layers it exercises.
func newLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}
