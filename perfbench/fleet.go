package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"time"

	"repro/node"
	"repro/node/cluster"
	"repro/node/memnet"
)

// fleetSpec describes a memnet fleet of live nodes.
type fleetSpec struct {
	nodes int
	// latency is memnet's one-way delay on every link.
	latency time.Duration
	// config returns node i's configuration (Files and Seed are set by
	// the fleet).
	config func() node.Config
	// cluster runs one shed-state service and a SyncClient per node.
	cluster bool
}

// Shed-state sync timing for fleets with cluster set: rounds every
// 25 ms, so a service window spans many pushes from every node. The
// service window matches the nodes' admission window (floodWindow), so
// the aggregate reads as per-window demand.
const (
	syncInterval  = 25 * time.Millisecond
	syncTimeout   = 40 * time.Millisecond
	staleAfter    = 100 * time.Millisecond
	serviceWindow = floodWindow
)

// catalogue is the generated content: one popular keyword every node
// shares and one rare file per node slot, each held by one node in 10.
type catalogue struct {
	popular string
	files   [][]string
	// holders maps a file name to the slots sharing it.
	holders map[string][]int
	// rareFor lists, per slot, the rare keywords the slot does not
	// hold (a query for one never hits locally).
	rareFor [][]string
}

func makeCatalogue(n int, rng *rand.Rand) *catalogue {
	c := &catalogue{
		popular: fmt.Sprintf("song%04d", rng.IntN(10000)),
		files:   make([][]string, n),
		holders: make(map[string][]int),
		rareFor: make([][]string, n),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s live take %02d.mp3", c.popular, i)
		c.files[i] = append(c.files[i], name)
		c.holders[name] = []int{i}
	}
	perNode := max(1, n/10)
	for j := 0; j < n; j++ {
		kw := fmt.Sprintf("rare%05d-%03d", rng.IntN(100000), j)
		name := kw + ".ogg"
		held := make(map[int]bool, perNode)
		for _, h := range rng.Perm(n)[:perNode] {
			c.files[h] = append(c.files[h], name)
			c.holders[name] = append(c.holders[name], h)
			held[h] = true
		}
		for i := 0; i < n; i++ {
			if !held[i] {
				c.rareFor[i] = append(c.rareFor[i], kw)
			}
		}
	}
	return c
}

// fleet is a running set of nodes on one memnet network.
type fleet struct {
	spec  fleetSpec
	cat   *catalogue
	nw    *memnet.Network
	nodes []*node.Node
	addrs []netip.AddrPort
	slot  map[netip.AddrPort]int
	svc   *cluster.Service
	// svcAddr is the shed-state service's stream address.
	svcAddr netip.AddrPort
	syncs   []*cluster.SyncClient
	lt      *liveTrace
	// goroutines is the count before the fleet started; every Close
	// must bring the process back to it.
	goroutines int
}

// startFleet builds the fleet and waits until set-up is observed to be
// complete; it returns the set-up time. lt, when non-nil, wraps every
// connection for tracing.
func startFleet(spec fleetSpec, seed uint64, lt *liveTrace) (*fleet, time.Duration, error) {
	f := &fleet{spec: spec, lt: lt, goroutines: runtime.NumGoroutine(), slot: make(map[netip.AddrPort]int)}
	rng := rand.New(rand.NewPCG(seed, 0x666c656574))
	f.cat = makeCatalogue(spec.nodes, rng)
	start := time.Now()
	f.nw = memnet.New(seed)
	f.nw.SetDefaultProfile(memnet.LinkProfile{Latency: spec.latency})
	if spec.cluster {
		ln := f.nw.ListenStream()
		svc, err := cluster.Serve(ln, cluster.ServiceConfig{Window: serviceWindow})
		if err != nil {
			return nil, 0, fmt.Errorf("shed-state service: %w", err)
		}
		f.svc, f.svcAddr = svc, ln.AddrPort()
	}
	for i := 0; i < spec.nodes; i++ {
		cfg := spec.config()
		cfg.Files = f.cat.files[i]
		cfg.Seed = seed*1000 + uint64(i) + 1
		var conn net.PacketConn = f.nw.Listen()
		if lt != nil {
			conn = lt.wrapConn(conn, i)
		}
		n, err := node.New(conn, cfg)
		if err != nil {
			conn.Close()
			f.close()
			return nil, 0, fmt.Errorf("node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, n)
		f.addrs = append(f.addrs, n.Addr())
		f.slot[n.Addr()] = i
	}
	if spec.cluster {
		if err := f.startSync(seed); err != nil {
			f.close()
			return nil, 0, err
		}
	}
	// Bootstrap: each node knows its ring successor and two random
	// peers; pings and pongs spread the rest.
	for i, n := range f.nodes {
		peers := []int{(i + 1) % spec.nodes, rng.IntN(spec.nodes), rng.IntN(spec.nodes)}
		for _, p := range peers {
			if p != i {
				n.AddPeer(f.addrs[p], uint32(len(f.cat.files[p])))
			}
		}
	}
	deadline := start.Add(30 * time.Second)
	for !f.ready() {
		if time.Now().After(deadline) {
			f.close()
			return nil, 0, errors.New("fleet set-up did not complete within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return f, time.Since(start), nil
}

func (f *fleet) startSync(seed uint64) error {
	for i, n := range f.nodes {
		var target cluster.SyncTarget = n
		dial := func() (net.Conn, error) { return f.nw.DialStream(f.svcAddr) }
		if f.lt != nil {
			target = f.lt.wrapTarget(n)
			dial = f.lt.wrapDial(dial)
		}
		c, err := cluster.NewSyncClient(target, cluster.ClientConfig{
			Name:       fmt.Sprintf("node-%02d", i),
			Dial:       dial,
			Interval:   syncInterval,
			Timeout:    syncTimeout,
			StaleAfter: staleAfter,
			Nonce:      uint64(i) + 1,
			Seed:       seed*1000 + uint64(i) + 1,
		})
		if err != nil {
			return fmt.Errorf("sync client %d: %w", i, err)
		}
		f.syncs = append(f.syncs, c)
	}
	return nil
}

// ready reports whether set-up is complete: every node's cache holds
// every other node, and every sync client is out of fallback.
func (f *fleet) ready() bool {
	for _, n := range f.nodes {
		if n.CacheLen() < len(f.nodes)-1 {
			return false
		}
	}
	for _, c := range f.syncs {
		if c.Status().Fallback {
			return false
		}
	}
	return true
}

// inFallback counts sync clients currently in local fallback.
func (f *fleet) inFallback() int {
	k := 0
	for _, c := range f.syncs {
		if c.Status().Fallback {
			k++
		}
	}
	return k
}

// close stops everything the fleet started.
func (f *fleet) close() {
	for _, c := range f.syncs {
		c.Close()
	}
	for _, n := range f.nodes {
		n.Close()
	}
	if f.svc != nil {
		f.svc.Close()
	}
}

// shutdown closes the fleet and runs the shutdown checks: memnet
// conserves packets once idle, and the goroutine count returns to its
// pre-fleet baseline.
func (f *fleet) shutdown() []error {
	f.close()
	var errs []error
	if !f.nw.WaitIdle(5 * time.Second) {
		errs = append(errs, errors.New("memnet did not go idle within 5s of Close"))
	}
	if err := checkConservation(f.nw.Stats()); err != nil {
		errs = append(errs, err)
	}
	if err := waitGoroutines(f.goroutines, 5*time.Second); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// checkConservation verifies memnet's packet accounting:
// Sent + Duplicated == Delivered + Dropped + Blocked + QueueDrop.
func checkConservation(s memnet.Stats) error {
	in := s.Sent + s.Duplicated
	out := s.Delivered + s.Dropped + s.Blocked + s.QueueDrop
	if in != out {
		return fmt.Errorf("memnet lost packets: sent %d + duplicated %d != delivered %d + dropped %d + blocked %d + queue drops %d",
			s.Sent, s.Duplicated, s.Delivered, s.Dropped, s.Blocked, s.QueueDrop)
	}
	return nil
}

// waitGoroutines waits for the goroutine count to fall back to
// baseline, reporting a leak if it does not within timeout.
func waitGoroutines(baseline int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after Close, baseline %d", n, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkHits verifies a query's hits: each name contains the keyword
// and each sender is a slot the benchmark gave that file.
func (f *fleet) checkHits(keyword string, hits []node.Hit) error {
	for _, h := range hits {
		if !strings.Contains(strings.ToLower(h.Name), strings.ToLower(keyword)) {
			return fmt.Errorf("query %q: hit %q does not contain the keyword", keyword, h.Name)
		}
		from, ok := f.slot[h.From]
		if !ok {
			return fmt.Errorf("query %q: hit %q from %v, which is not a fleet node", keyword, h.Name, h.From)
		}
		held := false
		for _, s := range f.cat.holders[h.Name] {
			held = held || s == from
		}
		if !held {
			return fmt.Errorf("query %q: node %d returned %q, which it was never given", keyword, from, h.Name)
		}
	}
	return nil
}

// pickKeyword draws a query for querier slot q: 80% the popular
// keyword, 20% a rare file q does not hold.
func (f *fleet) pickKeyword(rng *rand.Rand, q int) string {
	if rng.IntN(10) < 8 || len(f.cat.rareFor[q]) == 0 {
		return f.cat.popular
	}
	r := f.cat.rareFor[q]
	return r[rng.IntN(len(r))]
}
