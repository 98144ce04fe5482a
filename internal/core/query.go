package core

import (
	"repro/internal/cache"
	"repro/internal/content"
	"repro/internal/obs"
	"repro/internal/policy"
)

// query is the state of one in-flight search. Completed queries are
// recycled through the engine's free list (see getQuery/putQuery), so
// the selector buffers and the visited set are steady-state
// allocation-free.
type query struct {
	// id labels the query in trace events: 1-based in issue order,
	// stable across pooling (reassigned on every startQuery).
	id uint64
	// origin is the querying peer's ID (not slot: slots move on churn,
	// and a query outlives many churn events).
	origin  cache.PeerID
	item    content.ItemID
	started float64
	// round counts probe rounds for trace events.
	round int
	// counted records whether the query started inside the measurement
	// window and should contribute to metrics.
	counted bool
	// burstRemaining queries follow this one back-to-back when it
	// completes (the bursty workload's "succession").
	burstRemaining int

	results int
	probes  int
	good    int
	dead    int
	refused int

	// k is the current per-round fan-out; lastProgress is when the
	// query last gained a result (both drive AdaptiveParallel).
	k            int
	lastProgress float64

	sel *policy.Selector
	// seen is the query cache's dedup set: every address ever added as
	// a candidate. (The full cache.QueryCache bookkeeping is not needed
	// here — the selector holds the pending entries — and exhaustive
	// queries make per-candidate memory the simulator's footprint
	// ceiling.) It is generation-stamped rather than cleared: an
	// address is "seen" iff its stored stamp equals seenGen, so reuse
	// across pooled queries costs one increment instead of a map clear
	// or a fresh allocation.
	seen    map[cache.PeerID]uint64
	seenGen uint64
}

// maxRetainedSeen bounds how large a pooled query's visited set may
// grow before it is cleared on release: generation stamping never
// removes entries, and under churn the address space is unbounded, so
// without a cap a long run would accumulate every address ever seen in
// every pooled map.
const maxRetainedSeen = 1 << 15

// addCandidate records addr as seen and, if new, feeds the entry to
// the selector. It reports whether the entry was new.
func (q *query) addCandidate(e cache.Entry) bool {
	if q.seen[e.Addr] == q.seenGen {
		return false
	}
	q.seen[e.Addr] = q.seenGen
	q.sel.Add(e)
	return true
}

// getQuery pops a recycled query (or makes a fresh one). The caller
// must initialize every run-specific field; startQuery does.
func (e *Engine) getQuery() *query {
	if n := len(e.freeQueries); n > 0 && !e.noReuse {
		q := e.freeQueries[n-1]
		e.freeQueries[n-1] = nil
		e.freeQueries = e.freeQueries[:n-1]
		return q
	}
	return &query{
		sel:  policy.NewSelector(e.p.QueryProbe, e.rngPolicy),
		seen: make(map[cache.PeerID]uint64, 64),
	}
}

// putQuery returns a finished query to the free list. Safe because a
// query has at most one pending evProbeStep at any time, and both
// release sites run while handling (or before scheduling) that event —
// so no queued event can still reference q.
func (e *Engine) putQuery(q *query) {
	if e.noReuse {
		return
	}
	if len(q.seen) > maxRetainedSeen {
		clear(q.seen)
		q.seenGen = 0
	}
	e.freeQueries = append(e.freeQueries, q)
}

// startQuery begins a new query at the peer in slot p: the target item
// is drawn from the query model, the link cache is snapshotted into the
// candidate set, and the first probe round fires immediately.
func (e *Engine) startQuery(p int, burstRemaining int) {
	q := e.getQuery()
	e.nextQueryID++
	q.id = e.nextQueryID
	q.origin = e.ps.id[p]
	q.item = e.universe.DrawQuery(e.rngContent)
	q.started = e.now
	q.counted = e.now >= e.p.WarmupTime
	q.burstRemaining = burstRemaining
	q.round = 0
	q.results, q.probes, q.good, q.dead, q.refused = 0, 0, 0, 0, 0
	q.k = e.queryParallelism(p)
	q.lastProgress = e.now
	q.sel.Reset(e.p.QueryProbe, e.rngPolicy)
	q.seenGen++
	// Never probe yourself.
	q.seen[q.origin] = q.seenGen

	for _, entry := range e.ps.link[p].Entries() {
		q.addCandidate(entry)
	}
	if q.counted {
		e.inFlightCounted++
	}
	if e.observer != nil {
		e.observer.Observe(obs.Event{
			Kind:  obs.EvQueryIssued,
			Time:  e.now,
			Query: q.id,
			Peer:  uint64(q.origin),
		})
	}
	e.handleProbeStep(q)
}

// handleProbeStep sends the next round of (up to ParallelProbes)
// probes for q and either completes the query or schedules the next
// round.
func (e *Engine) handleProbeStep(q *query) {
	origin := e.ps.slotOf(q.origin)
	if origin < 0 {
		// The querying peer died; the query is abandoned.
		if q.counted {
			e.res.Aborted++
			e.inFlightCounted--
			if e.met != nil {
				e.met.Aborted.Inc()
			}
		}
		if e.observer != nil {
			e.observer.Observe(obs.Event{
				Kind:    obs.EvQueryDone,
				Time:    e.now,
				Query:   q.id,
				Peer:    uint64(q.origin),
				Outcome: obs.OutcomeAborted,
				Probes:  q.probes,
				Results: q.results,
			})
		}
		e.putQuery(q)
		return
	}

	q.round++
	if e.observer != nil {
		e.observer.Observe(obs.Event{
			Kind:   obs.EvProbeRound,
			Time:   e.now,
			Query:  q.id,
			Peer:   uint64(q.origin),
			Round:  q.round,
			Probes: q.probes,
		})
	}

	// All probes of a round are in flight before any replies arrive, so
	// a round is sent in full even if an early probe already satisfies
	// the query (the paper's "at most k-1 wasted probes").
	e.maybeGrowParallelism(q)
	for i := 0; i < q.k; i++ {
		entry, ok := e.nextCandidate(origin, q)
		if !ok {
			break
		}
		e.probeOne(origin, q, entry)
		if e.p.MaxProbesPerQuery > 0 && q.probes >= e.p.MaxProbesPerQuery {
			break
		}
	}

	switch {
	case q.results >= e.p.NumDesiredResults:
		e.completeQuery(origin, q, true)
	case q.sel.Len() == 0:
		e.completeQuery(origin, q, false)
	case e.p.MaxProbesPerQuery > 0 && q.probes >= e.p.MaxProbesPerQuery:
		e.completeQuery(origin, q, false)
	default:
		e.events.Push(e.now+e.p.ProbeSpacing, event{kind: evProbeStep, q: q})
	}
}

// nextCandidate pulls the best unprobed candidate, skipping targets the
// origin is currently backing off from.
func (e *Engine) nextCandidate(origin int, q *query) (cache.Entry, bool) {
	for {
		entry, ok := q.sel.Next()
		if !ok {
			return cache.Entry{}, false
		}
		if e.suppressedNow(origin, entry.Addr, e.now) {
			continue
		}
		return entry, true
	}
}

// probeOne delivers a single query probe from origin to the peer named
// by entry and processes the outcome (results, pong, introduction,
// cache bookkeeping).
func (e *Engine) probeOne(origin int, q *query, entry cache.Entry) {
	addr := entry.Addr
	q.probes++

	target := e.ps.slotOf(addr)
	if target < 0 {
		// Timeout: the peer is presumed dead and evicted.
		q.dead++
		e.ps.link[origin].Remove(addr)
		e.blameDeadAddress(origin, addr)
		if e.observer != nil {
			e.observer.Observe(obs.Event{
				Kind:    obs.EvProbe,
				Time:    e.now,
				Query:   q.id,
				Peer:    uint64(q.origin),
				Target:  uint64(addr),
				Outcome: obs.OutcomeDead,
			})
		}
		return
	}

	if e.now >= e.p.WarmupTime {
		e.ps.probesReceived[target]++
	}
	if e.addLoad(target, e.now, e.p.MaxProbesPerSecond) {
		// Refused: the overloaded peer drops the probe. Without
		// back-off the prober treats it like a dead peer (the
		// protocol's inherent throttling); with back-off the entry is
		// kept but suppressed for a while.
		q.refused++
		if e.p.DoBackoff {
			e.suppress(origin, addr, e.now+e.p.BackoffPeriod)
		} else {
			e.ps.link[origin].Remove(addr)
		}
		if e.observer != nil {
			e.observer.Observe(obs.Event{
				Kind:    obs.EvProbe,
				Time:    e.now,
				Query:   q.id,
				Peer:    uint64(q.origin),
				Target:  uint64(addr),
				Outcome: obs.OutcomeRefused,
			})
		}
		return
	}

	q.good++
	e.maybeIntroduce(target, origin)

	res := 0
	if !e.ps.malicious[target] {
		res = e.ps.lib[target].Results(q.item)
	}
	q.results += res
	if res > 0 {
		q.lastProgress = e.now
	}
	if e.observer != nil {
		e.observer.Observe(obs.Event{
			Kind:    obs.EvProbe,
			Time:    e.now,
			Query:   q.id,
			Peer:    uint64(q.origin),
			Target:  uint64(addr),
			Outcome: obs.OutcomeGood,
			Results: res,
		})
	}

	// Both sides record the interaction; the prober also refreshes its
	// direct NumRes experience with the target.
	e.ps.link[origin].Touch(addr, e.now)
	e.ps.link[origin].SetNumRes(addr, int32(res))
	e.ps.link[target].Touch(q.origin, e.now)

	// The pong rides along with the query response: new candidates for
	// this query's cache and fodder for the link cache. Blacklisted
	// suppliers' pongs are dropped (poison detection).
	if e.pongSourceBlocked(origin, addr) {
		return
	}
	pong := e.buildPong(target, e.p.QueryPong)
	targetBad := e.ps.malicious[target]
	for _, pe := range pong {
		if pe.Addr == q.origin {
			continue
		}
		pe.Direct = false
		if e.p.ResetNumResults {
			pe.NumRes = 0
		}
		e.recordSupplied(origin, addr, pe.Addr)
		q.addCandidate(pe)
		e.insertEntry(origin, pe, targetBad)
	}
	if e.observer != nil && len(pong) > 0 {
		e.observer.Observe(obs.Event{
			Kind:    obs.EvPong,
			Time:    e.now,
			Query:   q.id,
			Peer:    uint64(q.origin),
			Target:  uint64(addr),
			Entries: len(pong),
		})
	}
}

// completeQuery records metrics and chains the next query of the burst.
func (e *Engine) completeQuery(origin int, q *query, satisfied bool) {
	if q.counted {
		e.inFlightCounted--
		e.res.Queries++
		if satisfied {
			e.res.Satisfied++
		} else {
			e.res.Unsatisfied++
		}
		e.res.ProbesTotal += int64(q.probes)
		e.res.GoodProbes += int64(q.good)
		e.res.DeadProbes += int64(q.dead)
		e.res.RefusedProbes += int64(q.refused)
		e.res.ResponseTimeSum += e.now - q.started
		if e.met != nil {
			e.met.Queries.Inc()
			if satisfied {
				e.met.Satisfied.Inc()
			} else {
				e.met.Unsatisfied.Inc()
			}
			e.met.Probes.Add(uint64(q.probes))
			e.met.GoodProbes.Add(uint64(q.good))
			e.met.DeadProbes.Add(uint64(q.dead))
			e.met.RefusedProbes.Add(uint64(q.refused))
			e.met.QueryProbesHist.Observe(float64(q.probes))
			e.met.ResponseTime.Observe(e.now - q.started)
		}
	}
	if e.observer != nil {
		outcome := obs.OutcomeExhausted
		if satisfied {
			outcome = obs.OutcomeSatisfied
		}
		e.observer.Observe(obs.Event{
			Kind:    obs.EvQueryDone,
			Time:    e.now,
			Query:   q.id,
			Peer:    uint64(q.origin),
			Outcome: outcome,
			Probes:  q.probes,
			Results: q.results,
		})
	}
	// Recycle before chaining so the burst's next query can reuse this
	// one's storage immediately.
	burst := q.burstRemaining
	e.putQuery(q)
	if burst > 0 {
		e.startQuery(origin, burst-1)
	}
}
