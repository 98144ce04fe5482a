package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/node"
	"repro/node/memnet"
)

const (
	// liveSetups is how many fleets a run starts for the setup_s
	// median; the last one is measured.
	liveSetups = 5
	// queryDeadline bounds one live query; a later answer is a failure.
	queryDeadline = 2 * time.Second
	// liveClients is the number of closed-loop clients in live-query,
	// and at most nproc in any case.
	liveClients = 2
)

// liveQuerySpec: 50 nodes, no faults, flat admission with unlimited
// capacity — the admitted fast path, with no shedding and no sync. The
// default 100-entry caches hold the whole fleet at steady state, and
// set-up waits for that (fleet.ready): with a peer missing, a rare
// query can exhaust its candidates unsatisfied.
var liveQuerySpec = fleetSpec{
	nodes: 50,
	config: func() node.Config {
		return node.Config{PingInterval: 20 * time.Millisecond}
	},
}

// liveFloodSpec: 10 nodes with fair admission at a finite capacity
// behind one shed-state service; Busy demotes instead of evicting, so
// caches do not drain under shedding.
//
// The timing keeps the node's defaults (1 s admission windows, the
// protocol's 200 ms probe timeout and 3 attempts), so that a shared
// host descheduling the process does not fail queries. A stall over a
// large part of a window leaves the next window without carried-over
// pressure: the flood takes that window's whole capacity first-come,
// and every node refuses light queries until it ends. A stall longer
// than a probe's attempts evicts peers mid-query. With 100 ms windows
// and a 20 ms timeout, 100 ms stalls failed a few light queries a run.
var liveFloodSpec = fleetSpec{
	nodes:   10,
	latency: 200 * time.Microsecond,
	config: func() node.Config {
		return node.Config{
			PingInterval:       25 * time.Millisecond,
			ProbeTimeout:       200 * time.Millisecond,
			MaxProbeAttempts:   3,
			RetryBackoff:       5 * time.Millisecond,
			RetryBackoffMax:    20 * time.Millisecond,
			MaxProbesPerSecond: floodCapacity,
			Admission:          node.AdmissionFair,
			AdmissionWindow:    floodWindow,
			BusyBackoff:        20 * time.Millisecond,
			BusyBackoffMax:     200 * time.Millisecond,
			BusyEvictAfter:     8,
		}
	},
	cluster: true,
}

const (
	// floodCapacity is each live-flood node's probes per second, per
	// floodWindow admission window.
	floodCapacity = 500
	floodWindow   = time.Second
	// floodEvery and floodBurst set the per-node flood: 2 probes every
	// 2 ms, 1000/s against a capacity of 500.
	floodEvery = 2 * time.Millisecond
	floodBurst = 2
	// rotatorEvery paces the rotating heavy requester: 25 probes/s at
	// each of 10 nodes (under any node's fair share), 250/s in total.
	rotatorEvery = 4 * time.Millisecond
	// lightRate is live-flood's open-loop GUESS query rate, spread over
	// all nodes as queriers. Light queries are for the popular keyword,
	// so each querier's cluster-wide demand stays under a fair share.
	lightRate = 150.0
	// rotatorServedMax bounds the rotator's served share while the
	// shed-state service is up.
	rotatorServedMax = 0.3
)

// queryLog collects per-query outcomes from concurrent issuers.
type queryLog struct {
	mu sync.Mutex
	// lat holds latencies in µs, failures recorded as queryDeadline;
	// a histogram keeps the benchmark's memory flat however many
	// queries run.
	lat       logHist
	attempted int64
	ok        int64
	// errs, empty and late break the failures down by cause.
	errs, empty, late int64
	probes            int64
	retries           int64
	refused           int64
	wrong             []error
	lagUS             logHist // how late the open-loop generator started each query, µs
	// wall and cpu span the query phase only, after any warm-up.
	wall, cpu time.Duration
}

// record classifies one query. lat runs from the call (live-query) or
// the due time (live-flood) to the return.
func (l *queryLog) record(f *fleet, keyword string, hits []node.Hit, qs node.QueryStats, err error, lat time.Duration) {
	check := f.checkHits(keyword, hits)
	good := err == nil && check == nil && len(hits) > 0 && lat <= queryDeadline
	if !good {
		lat = queryDeadline // a failure misses any latency limit
	}
	v := float64(lat) / float64(time.Microsecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case err != nil:
		l.errs++
	case len(hits) == 0:
		l.empty++

	case !good && check == nil:
		l.late++
	}
	l.attempted++
	l.lat.add(v)
	l.probes += int64(qs.Probes)
	l.retries += int64(qs.Retries)
	l.refused += int64(qs.Refused)
	if good {
		l.ok++
	}
	if check != nil && len(l.wrong) < 5 {
		l.wrong = append(l.wrong, check)
	}
}

// query runs one traced-or-not node.Query from slot q.
func (f *fleet) query(q int, keyword string) ([]node.Hit, node.QueryStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), queryDeadline)
	defer cancel()
	if f.lt == nil {
		return f.nodes[q].Query(ctx, keyword, 1)
	}
	span, start := f.lt.beginQuery(q)
	hits, qs, err := f.nodes[q].Query(ctx, keyword, 1)
	f.lt.endQuery(q, span, start, len(hits))
	return hits, qs, err
}

// closedLoop runs liveClients clients for d; client c owns the slots
// congruent to c and sends its next query only when the last returns.
func closedLoop(f *fleet, seed uint64, d time.Duration) *queryLog {
	log := &queryLog{}
	c0, w0 := cpuTime(), time.Now()
	deadline := w0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < liveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
			var mine []int
			for i := c; i < len(f.nodes); i += liveClients {
				mine = append(mine, i)
			}
			for time.Now().Before(deadline) {
				q := mine[rng.IntN(len(mine))]
				kw := f.pickKeyword(rng, q)
				t0 := time.Now()
				hits, qs, err := f.query(q, kw)
				log.record(f, kw, hits, qs, err, time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	log.wall, log.cpu = time.Since(w0), cpuTime()-c0
	return log
}

// liveMeasure is a workload's measured phase.
type liveMeasure func(f *fleet, seed uint64, d time.Duration, out *outcome) (*queryLog, error)

func measureQuery(f *fleet, seed uint64, d time.Duration, _ *outcome) (*queryLog, error) {
	return closedLoop(f, seed, d), nil
}

func runLiveQuery(cfg runConfig) (*outcome, error) {
	return runLive(cfg, liveQuerySpec, measureQuery)
}

func runLiveFlood(cfg runConfig) (*outcome, error) {
	return runLive(cfg, liveFloodSpec, measureFlood)
}

// runLive starts liveSetups fleets (the last is measured) and reports
// the end-to-end metrics, or hands over to traceLive.
func runLive(cfg runConfig, spec fleetSpec, measure liveMeasure) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	if cfg.trace {
		return out, traceLive(cfg, spec, measure, out)
	}
	var setups []float64
	var f *fleet
	for i := 0; i < liveSetups; i++ {
		var err error
		var d time.Duration
		f, d, err = startFleet(spec, cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < liveSetups-1 {
			for _, err := range f.shutdown() {
				out.fail(err)
			}
		}
	}
	log, err := measure(f, cfg.seed, cfg.seconds, out)
	for _, err := range f.shutdown() {
		out.fail(err)
	}
	if err != nil {
		return nil, err
	}
	fillQueryMetrics(out, log)
	out.metrics["setup_s"] = median(setups)
	out.metrics["peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// fillQueryMetrics turns a query log into the end-to-end metrics and
// counts its failures.
func fillQueryMetrics(out *outcome, log *queryLog) {
	out.attempted += log.attempted
	out.failed += log.attempted - log.ok
	for _, e := range log.wrong {
		out.failures = append(out.failures, e)
	}
	m := out.metrics
	n := float64(max(log.attempted, 1))
	m["queries_per_s"] = float64(log.ok) / log.wall.Seconds()
	m["query_p50_us"] = log.lat.quantile(0.5)
	m["query_p99_us"] = log.lat.quantile(0.99)
	m["ok_frac"] = float64(log.ok) / n
	m["cpu_us_per_query"] = float64(log.cpu.Microseconds()) / n
	out.notef("queries: %d attempted, %d ok (failed: %d errors, %d without hits, %d late); latency samples %d (p50 %.0fus, p99 %.0fus); %.2f probes, %.2f refused per query",
		log.attempted, log.ok, log.errs, log.empty, log.late, log.lat.count(), m["query_p50_us"], m["query_p99_us"], float64(log.probes)/n, float64(log.refused)/n)
}

// traceLive runs the workload untraced and then, on a second fleet
// built with the tracing wrappers, under a CPU profile.
func traceLive(cfg runConfig, spec fleetSpec, measure liveMeasure, out *outcome) error {
	half := cfg.seconds / 2
	f, _, err := startFleet(spec, cfg.seed, nil)
	if err != nil {
		return err
	}
	plain, err := measure(f, cfg.seed, half, out)
	for _, e := range f.shutdown() {
		out.fail(e)
	}
	if err != nil {
		return err
	}
	out.attempted += plain.attempted

	tr, err := startTrace(cfg)
	if err != nil {
		return err
	}
	lt := newLiveTrace(tr, spec.nodes)
	f, _, err = startFleet(spec, cfg.seed, lt)
	if err != nil {
		tr.abort()
		return err
	}
	fallbacks, polls := pollFallback(f)
	drops0, stats0 := f.nw.Stats().QueueDrop, fleetStats(f)
	w0 := time.Now()
	log, err := measure(f, cfg.seed, half, out)
	wall := time.Since(w0) // the traced counters span warm-up too
	drops := f.nw.Stats().QueueDrop - drops0
	fb, np := fallbacks(), polls()
	stats := fleetStats(f).minus(stats0)
	for _, e := range f.shutdown() {
		out.fail(e)
	}
	if err != nil {
		tr.abort()
		return err
	}
	m := newLayerMetrics()
	if _, err := tr.finish(m, float64(log.attempted)); err != nil {
		return err
	}
	if v, ok := out.metrics["node.admission.rotator_served_frac"]; ok {
		m["node.admission.rotator_served_frac"] = v
	}
	out.metrics = m
	out.attempted += log.attempted
	out.failed += log.attempted - log.ok
	out.failed += plain.attempted - plain.ok
	for _, e := range append(plain.wrong, log.wrong...) {
		out.failures = append(out.failures, e)
	}

	n := float64(max(log.attempted, 1))
	var total int64
	for t := range lt.sent {
		total += lt.sent[t].Load()
	}
	m["memnet.datagrams_per_query"] = float64(total) / n
	m["memnet.ping_per_query"] = float64(lt.sent[wire.TypePing].Load()) / n
	m["memnet.pong_per_query"] = float64(lt.sent[wire.TypePong].Load()) / n
	m["memnet.query_per_query"] = float64(lt.sent[wire.TypeQuery].Load()) / n
	m["memnet.queryhit_per_query"] = float64(lt.sent[wire.TypeQueryHit].Load()) / n
	m["memnet.busy_per_query"] = float64(lt.sent[wire.TypeBusy].Load()) / n
	if total > 0 {
		m["memnet.busy_frac"] = float64(lt.sent[wire.TypeBusy].Load()) / float64(total)
	}
	m["memnet.queue_wait_us_p50"] = lt.queueWait.quantile(0.5)
	m["memnet.queue_wait_us_p99"] = lt.queueWait.quantile(0.99)
	m["memnet.queue_drops"] = float64(drops)
	m["node.serve.busy_us_p50"] = lt.serveBusy.quantile(0.5)
	m["node.serve.busy_us_p99"] = lt.serveBusy.quantile(0.99)
	var busiest int64
	for i := range lt.busyNanos {
		busiest = max(busiest, lt.busyNanos[i].Load())
	}
	m["node.serve.util_max"] = float64(busiest) / float64(wall)
	m["node.client.probes_per_query"] = float64(log.probes) / n
	m["node.client.retries_per_query"] = float64(log.retries) / n
	lt.mu.Lock()
	m["node.client.self_us"] = median(lt.clientSelf)
	lt.mu.Unlock()
	m["wire.decode_ns"], m["wire.encode_ns"] = lt.replayCodec()
	if stats.received > 0 {
		m["node.admission.shed_frac"] = float64(stats.refused) / float64(stats.received)
	}
	m["node.admission.light_refused"] = float64(log.refused)
	m["node.health.demotions"] = float64(stats.busyBackoffs)
	if spec.cluster {
		m["cluster.rounds_per_s"] = float64(lt.rounds.Load()) / wall.Seconds()
		m["cluster.rtt_us_p50"] = lt.rtt.quantile(0.5)
		m["cluster.rtt_us_p99"] = lt.rtt.quantile(0.99)
		if np > 0 {
			m["cluster.fallback_frac"] = float64(fb) / float64(np)
		}
	}
	m["gen.lag_p99_ms"] = log.lagUS.quantile(0.99) / 1e3
	m["bench.trace_overhead_frac"] = overhead(plain.cpu, int(plain.attempted), log.cpu, int(log.attempted))
	out.notef("traced: %d untraced + %d traced queries, %d spans kept", plain.attempted, log.attempted, len(tr.spans))
	return nil
}

// fleetTotals sums node counters over the fleet.
type fleetTotals struct {
	received, refused, busyBackoffs int64
}

func (t fleetTotals) minus(u fleetTotals) fleetTotals {
	return fleetTotals{t.received - u.received, t.refused - u.refused, t.busyBackoffs - u.busyBackoffs}
}

func fleetStats(f *fleet) fleetTotals {
	var t fleetTotals
	for _, n := range f.nodes {
		s := n.Stats()
		t.received += s.PingsReceived + s.QueriesServed + s.ShedQueries
		t.refused += s.ProbesRefused
		t.busyBackoffs += s.BusyBackoffs
	}
	return t
}

// pollFallback samples every 10 ms how many sync clients are in
// fallback; the returned functions stop the poller and read the totals
// (client-samples in fallback, client-samples taken).
func pollFallback(f *fleet) (fallbacks func() int64, polls func() int64) {
	var fb, n atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fb.Add(int64(f.inFallback()))
				n.Add(int64(len(f.syncs)))
			}
		}
	}()
	var once sync.Once
	halt := func() {
		once.Do(func() {
			close(stop)
			<-done
		})
	}
	return func() int64 { halt(); return fb.Load() }, func() int64 { halt(); return n.Load() }
}

// rawConn is a bare memnet endpoint the benchmark drives directly
// (floods and the rotating requester), bypassing node. Admitted probes
// introduce it into caches, so it answers probes like a live peer that
// shares nothing: an empty QueryHit or Pong.
type rawConn struct {
	*memnet.Conn
	buf []byte
}

func newRawConn(nw *memnet.Network) *rawConn {
	return &rawConn{Conn: nw.Listen(), buf: make([]byte, wire.MaxPacket)}
}

// answer replies to a probe from a node; other messages are dropped.
func (c *rawConn) answer(msg wire.Message, from net.Addr) {
	var reply wire.Message
	switch m := msg.(type) {
	case *wire.Query:
		reply = &wire.QueryHit{MsgID: m.MsgID}
	case *wire.Ping:
		reply = &wire.Pong{MsgID: m.MsgID}
	default:
		return
	}
	if pkt, err := wire.Encode(reply); err == nil {
		_, _ = c.WriteTo(pkt, from) // a lost answer reads as a timeout
	}
}

// serve answers probes until the endpoint is closed.
func (c *rawConn) serve() {
	for {
		n, from, err := c.ReadFrom(c.buf)
		if err != nil {
			return // closed at the end of the phase
		}
		if msg, err := wire.Decode(c.buf[:n]); err == nil {
			c.answer(msg, from)
		}
	}
}

// probe sends a query and waits for its reply: served (QueryHit) or
// not (Busy, or nothing before timeout). Probes from nodes arriving
// meanwhile are answered.
func (c *rawConn) probe(to netip.AddrPort, id uint64, keyword string, timeout time.Duration) (served bool) {
	pkt, err := wire.Encode(&wire.Query{MsgID: id, Desired: 1, Keyword: keyword})
	if err != nil {
		return false
	}
	if _, err := c.WriteTo(pkt, net.UDPAddrFromAddrPort(to)); err != nil {
		return false
	}
	if err := c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return false
	}
	for {
		n, from, err := c.ReadFrom(c.buf)
		if err != nil {
			return false
		}
		msg, err := wire.Decode(c.buf[:n])
		if err != nil {
			continue
		}
		if msg.ID() != id {
			c.answer(msg, from)
			continue
		}
		_, hit := msg.(*wire.QueryHit)
		return hit
	}
}

// measureFlood runs live-flood's measured phase: per-node raw floods
// above capacity, the rotating heavy requester, and open-loop light
// GUESS queries timed from their due time.
func measureFlood(f *fleet, seed uint64, d time.Duration, out *outcome) (*queryLog, error) {
	rng := rand.New(rand.NewPCG(seed, 0x666c6f6f64))
	var msgID atomic.Uint64
	msgID.Store(1 << 48)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Floods: one endpoint per node, fire-and-forget; replies are
	// drained and probes answered.
	var floods []*rawConn
	for range f.nodes {
		c := newRawConn(f.nw)
		floods = append(floods, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.serve()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(floodEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for i, c := range floods {
				for b := 0; b < floodBurst; b++ {
					pkt, err := wire.Encode(&wire.Query{MsgID: msgID.Add(1), Desired: 1, Keyword: f.cat.popular})
					if err == nil {
						_, _ = c.WriteTo(pkt, net.UDPAddrFromAddrPort(f.addrs[i])) // fire and forget
					}
				}
			}
		}
	}()

	// The rotating heavy requester: one address, round-robin over the
	// fleet. measuring gates its tally to the measured window.
	rot := newRawConn(f.nw)
	var measuring atomic.Bool
	var rotSent, rotServed atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(rotatorEvery)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			served := rot.probe(f.addrs[i%len(f.addrs)], msgID.Add(1), f.cat.popular, 30*time.Millisecond)
			if measuring.Load() {
				rotSent.Add(1)
				if served {
					rotServed.Add(1)
				}
			}
		}
	}()

	// Warm up: wait until the service has the rotator pegged, as an
	// operator would before reading the cluster's steady state, and
	// until every node has had a full admission window under the
	// flood (the window the flood starts in and the next may open
	// without carried-over pressure, and refuse everyone once the
	// flood has used their capacity).
	warm := time.Now().Add(3 * floodWindow)
	key := node.RequesterKey(rot.AddrPort(), f.svc.Salt())
	pegged := time.Now().Add(10 * time.Second)
	for f.svc.Estimate(key) < 15 && time.Now().Before(pegged) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(time.Until(warm))

	// Open-loop light queries: a Poisson process conditioned on its
	// count (lightRate x d arrival times drawn uniformly, then sorted)
	// from seeded querier choices, each timed from its due time.
	log := &queryLog{}
	offsets := make([]time.Duration, int(lightRate*d.Seconds()))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int64N(int64(d)))
	}
	slices.Sort(offsets)
	measuring.Store(true)
	c0, start := cpuTime(), time.Now()
	sem := make(chan struct{}, 256) // in-flight bound, far above rate x typical latency
	var qwg sync.WaitGroup
	for _, off := range offsets {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		q := rng.IntN(len(f.nodes))
		log.lagUS.add(float64(time.Since(due)) / float64(time.Microsecond))
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			kw := f.cat.popular
			hits, qs, err := f.query(q, kw)
			log.record(f, kw, hits, qs, err, time.Since(due))
			<-sem
		}()
	}
	qwg.Wait()
	log.wall, log.cpu = time.Since(start), cpuTime()-c0
	measuring.Store(false)
	close(stop)
	for _, c := range floods {
		c.Close()
	}
	rot.Close()
	wg.Wait()

	served := 0.0
	if n := rotSent.Load(); n > 0 {
		served = float64(rotServed.Load()) / float64(n)
	}
	out.metrics["node.admission.rotator_served_frac"] = served
	out.notef("rotating requester served %.3f of %d probes while the service was up", served, rotSent.Load())
	if rotSent.Load() == 0 || served > rotatorServedMax {
		out.fail(fmt.Errorf("rotating heavy requester served %.3f of %d probes with the service up, want <= %.2f",
			served, rotSent.Load(), rotatorServedMax))
	}
	return log, nil
}
