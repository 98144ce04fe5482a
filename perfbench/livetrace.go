package main

import (
	"encoding/binary"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/node"
	"repro/node/cluster"
)

// logHist is a lock-free histogram with buckets 0.1% wide, for
// percentiles of values recorded millions of times in fixed memory.
type logHist struct {
	buckets [histBuckets]atomic.Uint64
}

const (
	histBase = 1.001
	histMin  = 0.01 // smallest resolved value, in the recorded unit
	// histBuckets spans histMin to 1e9 times it (10 s in µs from
	// 0.01 µs).
	histBuckets = 20730
)

var logHistBase = math.Log(histBase)

func (h *logHist) add(v float64) {
	i := 0
	if v > histMin {
		i = int(math.Log(v/histMin)/logHistBase) + 1
	}
	h.buckets[min(i, histBuckets-1)].Add(1)
}

func (h *logHist) count() uint64 {
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// quantile returns the q-quantile, interpolating by rank inside the
// bucket that holds it (0 for an empty histogram).
func (h *logHist) quantile(q float64) float64 {
	total := h.count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total-1)
	var seen float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if c > 0 && seen+c > rank {
			lo, hi := 0.0, histMin
			if i > 0 {
				lo, hi = histMin*math.Pow(histBase, float64(i-1)), histMin*math.Pow(histBase, float64(i))
			}
			return lo + (hi-lo)*(rank-seen+0.5)/c
		}
		seen += c
	}
	return histMin * math.Pow(histBase, histBuckets-1)
}

// numTypes bounds wire.Type values (TypePing..TypeBusy).
const numTypes = 6

// inflightKey matches a datagram's WriteTo with its ReadFrom.
type inflightKey struct {
	from, to netip.AddrPort
	id       uint64
	typ      byte
}

type inflightVal struct {
	sent  time.Time
	probe uint64 // span id of the probe this datagram belongs to
	trace uint64
}

const inflightShards = 64

type inflightShard struct {
	mu sync.Mutex
	m  map[inflightKey]inflightVal
}

// probeKey identifies an outstanding probe at its querier.
type probeKey struct {
	node int
	id   uint64
}

type probeVal struct {
	span, parent, trace uint64
	start               time.Time
}

// liveTrace holds the live stack's tracing wrappers' shared state: the
// PacketConn wrapper passed to node.New, the SyncTarget wrapper and the
// Dial-conn wrapper handed to cluster.NewSyncClient. A fleet built
// without one runs no wrapper code at all.
type liveTrace struct {
	sess *traceSession

	sent       [numTypes]atomic.Int64 // datagrams written by fleet nodes, by wire type
	queueWait  logHist                // µs
	serveBusy  logHist                // µs
	busyNanos  []atomic.Int64         // per node
	clientSelf []float64              // µs, guarded by mu
	mu         sync.Mutex

	inflight [inflightShards]inflightShard

	probesMu sync.Mutex
	probes   map[probeKey]probeVal

	// active[i] is the span of node i's current query (0 = none) and
	// child[i] the probe time accumulated under it.
	active []atomic.Uint64
	trace  []atomic.Uint64
	child  []atomic.Int64

	rounds atomic.Int64
	rtt    logHist // µs

	// capture keeps a sample of written datagrams for the wire codec
	// replay.
	captureN atomic.Int64
	capMu    sync.Mutex
	capture  [][]byte
}

const maxCapture = 4096

func newLiveTrace(sess *traceSession, nodes int) *liveTrace {
	lt := &liveTrace{
		sess:      sess,
		busyNanos: make([]atomic.Int64, nodes),
		probes:    make(map[probeKey]probeVal),
		active:    make([]atomic.Uint64, nodes),
		trace:     make([]atomic.Uint64, nodes),
		child:     make([]atomic.Int64, nodes),
	}
	for i := range lt.inflight {
		lt.inflight[i].m = make(map[inflightKey]inflightVal)
	}
	return lt
}

func (lt *liveTrace) shard(k inflightKey) *inflightShard {
	h := k.id ^ uint64(k.to.Port())<<32 ^ uint64(k.from.Port())
	return &lt.inflight[h%inflightShards]
}

// header extracts a datagram's wire type and MsgID without decoding
// it (the codec's own cost stays out of the wrapper).
func header(p []byte) (typ byte, id uint64, ok bool) {
	if len(p) < wire.HeaderSize || p[0] != wire.Magic0 || p[1] != wire.Magic1 {
		return 0, 0, false
	}
	typ = p[3]
	if typ >= numTypes {
		return 0, 0, false
	}
	return typ, binary.BigEndian.Uint64(p[4:12]), true
}

// beginQuery opens node i's query span.
func (lt *liveTrace) beginQuery(i int) (span uint64, start time.Time) {
	span = lt.sess.newID()
	lt.trace[i].Store(span)
	lt.active[i].Store(span)
	lt.child[i].Store(0)
	return span, time.Now()
}

// endQuery closes node i's query span, recording its self time (the
// span minus its probe child spans).
func (lt *liveTrace) endQuery(i int, span uint64, start time.Time, results int) {
	end := time.Now()
	lt.active[i].CompareAndSwap(span, 0)
	self := end.Sub(start) - time.Duration(lt.child[i].Swap(0))
	lt.mu.Lock()
	lt.clientSelf = append(lt.clientSelf, float64(max(self, 0))/float64(time.Microsecond))
	lt.mu.Unlock()
	lt.sess.record(Span{ID: span, Trace: span, Name: "node.query", Start: lt.sess.since(start), End: lt.sess.since(end), N: results})
}

// tracedConn is the net.PacketConn wrapper handed to node.New.
type tracedConn struct {
	net.PacketConn
	lt   *liveTrace
	node int
	self netip.AddrPort

	// Only the node's serveLoop reads, so these need no lock: the end
	// of the last ReadFrom and the span the datagram it returned
	// belongs to.
	lastRead  time.Time
	lastProbe uint64
	lastTrace uint64
}

func (lt *liveTrace) wrapConn(c net.PacketConn, node int) net.PacketConn {
	ap, _ := netip.ParseAddrPort(c.LocalAddr().String())
	return &tracedConn{PacketConn: c, lt: lt, node: node, self: ap}
}

func toAddrPort(a net.Addr) netip.AddrPort {
	if u, ok := a.(*net.UDPAddr); ok {
		return u.AddrPort()
	}
	ap, _ := netip.ParseAddrPort(a.String())
	return ap
}

// WriteTo counts the datagram, opens a probe span for a query probe,
// and registers the datagram for queue-wait matching before passing
// it on (memnet delivers synchronously, so registration comes first).
func (c *tracedConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	lt := c.lt
	now := time.Now()
	if typ, id, ok := header(p); ok {
		lt.sent[typ].Add(1)
		if lt.captureN.Add(1)%16 == 0 {
			lt.capMu.Lock()
			if len(lt.capture) < maxCapture {
				lt.capture = append(lt.capture, append([]byte(nil), p...))
			}
			lt.capMu.Unlock()
		}
		v := inflightVal{sent: now}
		if wire.Type(typ) == wire.TypeQuery {
			if parent := lt.active[c.node].Load(); parent != 0 {
				v.probe, v.trace = lt.sess.newID(), lt.trace[c.node].Load()
				lt.probesMu.Lock()
				lt.probes[probeKey{c.node, id}] = probeVal{span: v.probe, parent: parent, trace: v.trace, start: now}
				lt.probesMu.Unlock()
			}
		}
		k := inflightKey{from: c.self, to: toAddrPort(addr), id: id, typ: typ}
		sh := lt.shard(k)
		sh.mu.Lock()
		sh.m[k] = v
		sh.mu.Unlock()
	}
	return c.PacketConn.WriteTo(p, addr)
}

// ReadFrom records the serve time of the previous datagram (from its
// ReadFrom return to this call), then the queue wait of the new one,
// and closes the probe span a reply answers.
func (c *tracedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	lt := c.lt
	enter := time.Now()
	if !c.lastRead.IsZero() {
		busy := enter.Sub(c.lastRead)
		lt.busyNanos[c.node].Add(int64(busy))
		lt.serveBusy.add(float64(busy) / float64(time.Microsecond))
		if c.lastProbe != 0 {
			lt.sess.record(Span{ID: lt.sess.newID(), Parent: c.lastProbe, Trace: c.lastTrace, Name: "node.serve",
				Start: lt.sess.since(c.lastRead), End: lt.sess.since(enter)})
		}
		c.lastRead = time.Time{}
	}
	n, from, err := c.PacketConn.ReadFrom(p)
	if err != nil {
		return n, from, err
	}
	now := time.Now()
	c.lastRead, c.lastProbe, c.lastTrace = now, 0, 0
	typ, id, ok := header(p[:n])
	if !ok {
		return n, from, err
	}
	fromAP := toAddrPort(from)
	k := inflightKey{from: fromAP, to: c.self, id: id, typ: typ}
	sh := lt.shard(k)
	sh.mu.Lock()
	v, found := sh.m[k]
	delete(sh.m, k)
	sh.mu.Unlock()
	if found {
		lt.queueWait.add(float64(now.Sub(v.sent)) / float64(time.Microsecond))
		if v.probe != 0 {
			c.lastProbe, c.lastTrace = v.probe, v.trace
			lt.sess.record(Span{ID: lt.sess.newID(), Parent: v.probe, Trace: v.trace, Name: "memnet.queue",
				Start: lt.sess.since(v.sent), End: lt.sess.since(now)})
		}
	}
	switch wire.Type(typ) {
	case wire.TypeQueryHit, wire.TypeBusy:
		pk := probeKey{c.node, id}
		lt.probesMu.Lock()
		pv, open := lt.probes[pk]
		delete(lt.probes, pk)
		lt.probesMu.Unlock()
		if open {
			lt.child[c.node].Add(int64(now.Sub(pv.start)))
			lt.sess.record(Span{ID: pv.span, Parent: pv.parent, Trace: pv.trace, Name: "node.probe",
				Start: lt.sess.since(pv.start), End: lt.sess.since(now)})
		}
	}
	return n, from, err
}

// tracedTarget is the cluster.SyncTarget wrapper: every sync round
// starts with one TakeAdmissionDelta call.
type tracedTarget struct {
	cluster.SyncTarget
	lt *liveTrace
}

func (lt *liveTrace) wrapTarget(n *node.Node) cluster.SyncTarget {
	return tracedTarget{SyncTarget: n, lt: lt}
}

func (t tracedTarget) TakeAdmissionDelta() (node.AdmissionDelta, bool) {
	t.lt.rounds.Add(1)
	return t.SyncTarget.TakeAdmissionDelta()
}

// tracedStream wraps a sync client's service connection: the time from
// a write to the next read's return is one exchange's round trip.
type tracedStream struct {
	net.Conn
	lt    *liveTrace
	wrote atomic.Int64 // unix nanos of the first unanswered write, 0 = none
}

func (lt *liveTrace) wrapDial(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &tracedStream{Conn: c, lt: lt}, nil
	}
}

func (s *tracedStream) Write(p []byte) (int, error) {
	s.wrote.CompareAndSwap(0, time.Now().UnixNano())
	return s.Conn.Write(p)
}

func (s *tracedStream) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	if n > 0 {
		if w := s.wrote.Swap(0); w != 0 {
			s.lt.rtt.add(float64(time.Now().UnixNano()-w) / float64(time.Microsecond))
		}
	}
	return n, err
}

// replayCodec times wire.Decode and wire.Encode over the captured
// datagram mix, returning ns per datagram for each.
func (lt *liveTrace) replayCodec() (decodeNs, encodeNs float64) {
	lt.capMu.Lock()
	pkts := lt.capture
	lt.capMu.Unlock()
	var msgs []wire.Message
	for _, p := range pkts {
		if m, err := wire.Decode(p); err == nil {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) == 0 {
		return 0, 0
	}
	const rounds = 20
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range pkts {
			_, _ = wire.Decode(p) // every captured datagram decoded once already
		}
	}
	decodeNs = float64(time.Since(t0)) / float64(rounds*len(pkts))
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			_, _ = wire.Encode(m) // re-encoding a decoded message cannot fail
		}
	}
	encodeNs = float64(time.Since(t0)) / float64(rounds*len(msgs))
	return decodeNs, encodeNs
}
