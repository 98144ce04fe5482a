package node

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"time"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/wire"
)

// pingLoop maintains the link cache: every PingInterval it pings one
// entry chosen by the PingProbe policy, evicting it on timeout and
// absorbing the pong otherwise.
func (n *Node) pingLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.PingInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.closing:
			return
		case <-ticker.C:
			n.pingOnce()
		}
	}
}

// pingOnce performs one maintenance ping, if the cache has a
// non-suppressed entry.
func (n *Node) pingOnce() {
	n.mu.Lock()
	entries := n.link.Entries()
	i := policy.Pick(n.rng, n.cfg.PingProbe, entries)
	var target netip.AddrPort
	var id cache.PeerID
	if i >= 0 {
		id = entries[i].Addr
		if n.suppressedLocked(id) {
			i = -1 // demoted this round; try again next tick
		} else {
			target = n.addrs[id]
		}
	}
	n.mu.Unlock()
	if i < 0 || !target.IsValid() {
		return
	}

	n.met.PingsSent.Inc()
	ping := &wire.Ping{MsgID: n.msgID.Add(1), NumFiles: uint32(len(n.cfg.Files))}
	reply, outcome := n.transact(context.Background(), ping, target, nil)
	switch outcome {
	case txTimeout:
		// Every attempt unanswered: breaker or eviction.
		n.peerTimedOut(id)
	case txReply:
		if pong, ok := reply.(*wire.Pong); ok {
			n.met.PongsReceived.Inc()
			n.mu.Lock()
			n.link.Touch(id, n.now())
			n.health.onSuccess(id)
			n.absorbPong(pong.Entries)
			n.mu.Unlock()
		}
	}
}

// absorbPong runs cache replacement over received entries; callers
// hold n.mu.
func (n *Node) absorbPong(entries []wire.PongEntry) {
	self := n.Addr()
	for _, pe := range entries {
		if pe.Addr == self || !pe.Addr.IsValid() {
			continue
		}
		id := n.idFor(pe.Addr)
		policy.Insert(n.rng, n.cfg.CacheReplacement, n.link, cache.Entry{
			Addr:     id,
			TS:       n.now(),
			NumFiles: int32(clampFiles(pe.NumFiles)),
			NumRes:   int32(pe.NumRes),
			Direct:   false,
		})
	}
	n.health.pruneTo(n.link)
	n.syncBreakerGauge()
	n.syncCacheGauge()
}

// txOutcome classifies one transact run.
type txOutcome int

const (
	// txReply: a correlated reply arrived.
	txReply txOutcome = iota
	// txTimeout: every attempt timed out or failed to send; the target
	// is presumed dead.
	txTimeout
	// txAborted: the context was cancelled or the node closed.
	txAborted
)

// transact sends req to target up to MaxProbeAttempts times, waiting
// one attemptTimeout per transmission with exponential backoff between
// attempts. It returns the first correlated reply, or nil with the
// failure classification. Successful first-transmission RTTs feed the
// adaptive-timeout estimator (Karn's rule: retransmitted exchanges are
// ambiguous and never sampled). qs, when non-nil, accrues per-query
// retry counts.
func (n *Node) transact(ctx context.Context, req wire.Message, target netip.AddrPort, qs *QueryStats) (wire.Message, txOutcome) {
	replies, cancel := n.await(req.ID())
	defer cancel()

	backoff := n.cfg.RetryBackoff
	for attempt := 1; ; attempt++ {
		sentAt := time.Now()
		sendErr := n.send(req, target)
		if sendErr != nil {
			n.logf("send %s to %v: %v", req.Type(), target, sendErr)
		} else {
			timer := time.NewTimer(n.attemptTimeout())
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, txAborted
			case <-n.closing:
				timer.Stop()
				return nil, txAborted
			case reply := <-replies:
				timer.Stop()
				if attempt == 1 {
					n.observeRTT(time.Since(sentAt))
				}
				return reply, txReply
			case <-timer.C:
			}
		}
		if attempt >= n.cfg.MaxProbeAttempts {
			return nil, txTimeout
		}
		n.met.Retries.Inc()
		if qs != nil {
			qs.Retries++
		}
		if !n.sleep(ctx, backoff) {
			return nil, txAborted
		}
		backoff = min(2*backoff, n.cfg.RetryBackoffMax)
	}
}

// sleep pauses for d, aborting early on ctx cancellation or node
// close; it reports whether the full pause elapsed.
func (n *Node) sleep(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-n.closing:
		return false
	case <-timer.C:
		return true
	}
}

// attemptTimeout returns the per-transmission reply deadline: the
// configured ProbeTimeout, or with AdaptiveTimeout an RTO from the RTT
// EWMA (srtt + 4*rttvar) clamped to [ProbeTimeout/8, 2*ProbeTimeout].
func (n *Node) attemptTimeout() time.Duration {
	if !n.cfg.AdaptiveTimeout {
		return n.cfg.ProbeTimeout
	}
	n.mu.Lock()
	srtt, rttvar := n.srtt, n.rttvar
	n.mu.Unlock()
	if srtt == 0 {
		return n.cfg.ProbeTimeout
	}
	rto := time.Duration((srtt + 4*rttvar) * float64(time.Second))
	if lo := n.cfg.ProbeTimeout / 8; rto < lo {
		return lo
	}
	if hi := 2 * n.cfg.ProbeTimeout; rto > hi {
		return hi
	}
	return rto
}

// observeRTT feeds one unambiguous RTT sample into the Jacobson/Karels
// estimator behind adaptive timeouts, and into the RTT histogram.
func (n *Node) observeRTT(rtt time.Duration) {
	s := rtt.Seconds()
	n.met.RTT.Observe(s)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srtt == 0 {
		n.srtt, n.rttvar = s, s/2
		return
	}
	n.rttvar = 0.75*n.rttvar + 0.25*math.Abs(n.srtt-s)
	n.srtt = 0.875*n.srtt + 0.125*s
}

// peerTimedOut handles a peer whose probe exhausted every attempt:
// with the breaker disabled the peer is evicted outright (the
// protocol's presumed-dead default); with it enabled the timeout feeds
// the breaker, which suppresses the peer after BreakerThreshold
// consecutive timeouts and evicts only when the half-open trial fails.
func (n *Node) peerTimedOut(id cache.PeerID) {
	n.mu.Lock()
	evict, opened := n.health.onTimeout(id, time.Now())
	if evict {
		n.link.Remove(id)
		n.syncCacheGauge()
	}
	n.syncBreakerGauge()
	n.mu.Unlock()
	if opened {
		n.met.BreakerOpens.Inc()
	}
	if evict {
		n.met.DeadEvictions.Inc()
	}
}

// suppressedLocked reports whether a peer should sit out probe
// selection (Busy demotion or an open breaker); callers hold n.mu.
func (n *Node) suppressedLocked(id cache.PeerID) bool {
	return n.health.suppressed(id, time.Now())
}

// demoteBusy applies Busy-aware demotion: with BusyBackoff disabled
// the overloaded peer is dropped from the cache (the simulator's
// no-backoff default); otherwise it is suppressed with exponential
// backoff and evicted only after BusyEvictAfter consecutive refusals.
func (n *Node) demoteBusy(id cache.PeerID) {
	n.mu.Lock()
	evict, demoted := n.health.onBusy(id, time.Now())
	if evict {
		n.link.Remove(id)
		n.syncCacheGauge()
	}
	n.syncBreakerGauge()
	n.mu.Unlock()
	if demoted {
		n.met.BusyBackoffs.Inc()
	}
}

// Query runs a GUESS search: it serially probes peers from the link
// cache and the growing query cache, under the QueryProbe policy,
// until `desired` results arrive, the candidates are exhausted, or ctx
// is done. It returns the hits collected so far in every case; the
// error is non-nil only for invalid arguments or a closed node.
func (n *Node) Query(ctx context.Context, keyword string, desired int) ([]Hit, QueryStats, error) {
	var stats QueryStats
	if keyword == "" || len(keyword) > wire.MaxNameLen {
		return nil, stats, fmt.Errorf("node: invalid keyword %q", keyword)
	}
	if desired < 1 || desired > 255 {
		return nil, stats, fmt.Errorf("node: desired results %d outside [1,255]", desired)
	}
	select {
	case <-n.closing:
		return nil, stats, errClosed
	default:
	}

	// Snapshot the link cache into the candidate set.
	n.mu.Lock()
	sel := policy.NewSelector(n.cfg.QueryProbe, n.rng)
	// seen is the query cache's dedup set: every address ever offered
	// as a candidate, starting with our own. The selector holds the
	// pending candidates themselves.
	seen := make(map[cache.PeerID]struct{}, n.link.Len()+1)
	seen[n.idFor(n.Addr())] = struct{}{}
	for _, e := range n.link.Entries() {
		addCandidate(seen, sel, e)
	}
	n.mu.Unlock()

	var hits []Hit
	for len(hits) < desired {
		select {
		case <-ctx.Done():
			return hits, stats, nil
		case <-n.closing:
			return hits, stats, nil
		default:
		}
		n.mu.Lock()
		entry, ok := sel.Next()
		// Busy-demoted peers sit out the query instead of wasting a
		// probe on another refusal.
		for ok && n.suppressedLocked(entry.Addr) {
			entry, ok = sel.Next()
		}
		var target netip.AddrPort
		if ok {
			target = n.addrs[entry.Addr]
		}
		n.mu.Unlock()
		if !ok {
			break // exhausted
		}
		if !target.IsValid() {
			continue
		}
		newHits := n.probe(ctx, target, entry.Addr, keyword, desired-len(hits), &stats, sel, seen)
		hits = append(hits, newHits...)
	}
	return hits, stats, nil
}

// probe runs one query probe (with retries) and processes the reply.
func (n *Node) probe(ctx context.Context, target netip.AddrPort, id cache.PeerID,
	keyword string, want int, stats *QueryStats,
	sel *policy.Selector, seen map[cache.PeerID]struct{}) []Hit {

	stats.Probes++
	q := &wire.Query{
		MsgID:    n.msgID.Add(1),
		Desired:  uint8(want),
		NumFiles: uint32(len(n.cfg.Files)),
		Keyword:  keyword,
	}
	reply, outcome := n.transact(ctx, q, target, stats)
	switch outcome {
	case txAborted:
		return nil
	case txTimeout:
		// Every attempt unanswered: presumed dead for this query;
		// eviction vs breaker is the health layer's call.
		stats.Dead++
		n.peerTimedOut(id)
		return nil
	}

	switch m := reply.(type) {
	case *wire.Busy:
		stats.Refused++
		n.demoteBusy(id)
		return nil
	case *wire.QueryHit:
		stats.Good++
		n.mu.Lock()
		n.link.Touch(id, n.now())
		n.link.SetNumRes(id, int32(len(m.Results)))
		n.health.onSuccess(id)
		// Grow the query cache and the link cache from the
		// piggy-backed pong.
		self := n.Addr()
		for _, pe := range m.Pong {
			if pe.Addr == self || !pe.Addr.IsValid() {
				continue
			}
			peID := n.idFor(pe.Addr)
			entry := cache.Entry{
				Addr:     peID,
				TS:       n.now(),
				NumFiles: int32(clampFiles(pe.NumFiles)),
				NumRes:   int32(pe.NumRes),
				Direct:   false,
			}
			addCandidate(seen, sel, entry)
			policy.Insert(n.rng, n.cfg.CacheReplacement, n.link, entry)
		}
		n.health.pruneTo(n.link)
		n.syncBreakerGauge()
		n.syncCacheGauge()
		n.mu.Unlock()
		hits := make([]Hit, 0, len(m.Results))
		for _, name := range m.Results {
			hits = append(hits, Hit{From: target, Name: name})
		}
		return hits
	default:
		return nil
	}
}

// addCandidate offers e to the query's selector unless its address was
// already seen during this query.
func addCandidate(seen map[cache.PeerID]struct{}, sel *policy.Selector, e cache.Entry) {
	if _, dup := seen[e.Addr]; !dup {
		seen[e.Addr] = struct{}{}
		sel.Add(e)
	}
}

// PingPeer sends one explicit ping (bootstrap helper, with the same
// retry schedule as other probes) and reports whether the peer
// answered.
func (n *Node) PingPeer(ctx context.Context, target netip.AddrPort) (bool, error) {
	select {
	case <-n.closing:
		return false, errClosed
	default:
	}
	n.met.PingsSent.Inc()
	ping := &wire.Ping{MsgID: n.msgID.Add(1), NumFiles: uint32(len(n.cfg.Files))}
	reply, outcome := n.transact(ctx, ping, target, nil)
	switch outcome {
	case txAborted:
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return false, errClosed
	case txTimeout:
		return false, nil
	}
	pong, ok := reply.(*wire.Pong)
	if !ok {
		return false, nil
	}
	n.met.PongsReceived.Inc()
	n.mu.Lock()
	id := n.idFor(target)
	n.link.Touch(id, n.now())
	n.health.onSuccess(id)
	n.absorbPong(pong.Entries)
	n.mu.Unlock()
	return true, nil
}
