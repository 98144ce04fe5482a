package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/overlay"
	"repro/internal/policy"
)

// quickParams returns a small, fast configuration for tests.
func quickParams() Params {
	p := DefaultParams()
	p.NetworkSize = 200
	p.WarmupTime = 100
	p.MeasureTime = 400
	p.QueryRate = 0.02 // denser queries so short runs have samples
	return p
}

func run(t *testing.T, p Params) *Results {
	t.Helper()
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidateRejectsBadParams(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"tiny network", func(p *Params) { p.NetworkSize = 1 }},
		{"zero desired results", func(p *Params) { p.NumDesiredResults = 0 }},
		{"zero lifespan", func(p *Params) { p.LifespanMultiplier = 0 }},
		{"zero query rate", func(p *Params) { p.QueryRate = 0 }},
		{"bad percent", func(p *Params) { p.PercentBadPeers = 150 }},
		{"bad peers without behavior", func(p *Params) { p.PercentBadPeers = 10; p.BadPong = 0 }},
		{"bad query probe", func(p *Params) { p.QueryProbe = 0 }},
		{"bad query pong", func(p *Params) { p.QueryPong = 99 }},
		{"bad ping probe", func(p *Params) { p.PingProbe = 0 }},
		{"bad ping pong", func(p *Params) { p.PingPong = 0 }},
		{"bad replacement", func(p *Params) { p.CacheReplacement = 0 }},
		{"zero ping interval", func(p *Params) { p.PingInterval = 0 }},
		{"zero cache", func(p *Params) { p.CacheSize = 0 }},
		{"backoff without period", func(p *Params) { p.DoBackoff = true; p.BackoffPeriod = 0 }},
		{"negative pong size", func(p *Params) { p.PongSize = -1 }},
		{"bad intro prob", func(p *Params) { p.IntroProb = 2 }},
		{"negative seed size", func(p *Params) { p.CacheSeedSize = -1 }},
		{"zero probe spacing", func(p *Params) { p.ProbeSpacing = 0 }},
		{"zero parallel probes", func(p *Params) { p.ParallelProbes = 0 }},
		{"negative max probes", func(p *Params) { p.MaxProbesPerQuery = -1 }},
		{"negative warmup", func(p *Params) { p.WarmupTime = -1 }},
		{"zero measure", func(p *Params) { p.MeasureTime = 0 }},
		{"zero sample interval", func(p *Params) { p.SampleInterval = 0 }},
		{"bad content", func(p *Params) { p.Content.NumItems = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if _, err := New(p); err == nil {
				t.Fatal("invalid params accepted")
			}
		})
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnce(t *testing.T) {
	e, err := New(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("second Run succeeded")
	}
}

func TestBasicRunProducesQueries(t *testing.T) {
	res := run(t, quickParams())
	if res.Queries == 0 {
		t.Fatal("no queries completed")
	}
	if res.Satisfied+res.Unsatisfied != res.Queries {
		t.Fatalf("satisfied %d + unsatisfied %d != queries %d",
			res.Satisfied, res.Unsatisfied, res.Queries)
	}
	if res.ProbesTotal != res.GoodProbes+res.DeadProbes+res.RefusedProbes {
		t.Fatalf("probe accounting broken: %d != %d+%d+%d",
			res.ProbesTotal, res.GoodProbes, res.DeadProbes, res.RefusedProbes)
	}
	if res.ProbesPerQuery() <= 0 {
		t.Fatal("no probes recorded")
	}
	if res.Unsatisfaction() < 0 || res.Unsatisfaction() > 1 {
		t.Fatalf("unsatisfaction %v outside [0,1]", res.Unsatisfaction())
	}
}

func TestDeterminism(t *testing.T) {
	p := quickParams()
	a := run(t, p)
	b := run(t, p)
	if a.Queries != b.Queries || a.ProbesTotal != b.ProbesTotal ||
		a.Satisfied != b.Satisfied || a.Births != b.Births ||
		a.Pings != b.Pings {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	p.Seed = 999
	c := run(t, p)
	if c.ProbesTotal == a.ProbesTotal && c.Queries == a.Queries && c.Pings == a.Pings {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestChurnKeepsPopulationConstant(t *testing.T) {
	p := quickParams()
	p.LifespanMultiplier = 0.1 // heavy churn
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if e.ps.len() != p.NetworkSize {
		t.Fatalf("alive population %d, want %d", e.ps.len(), p.NetworkSize)
	}
	if res.Deaths == 0 {
		t.Fatal("no churn under LifespanMultiplier=0.1")
	}
	if res.Births != res.Deaths+p.NetworkSize {
		t.Fatalf("births %d != deaths %d + initial %d", res.Births, res.Deaths, p.NetworkSize)
	}
	// The dense index table and the slot arrays must agree both ways.
	live := 0
	for i := 0; i < e.ps.len(); i++ {
		if got := e.ps.slotOf(e.ps.id[i]); got != i {
			t.Fatalf("slot %d holds id %d but slotOf resolves to %d", i, e.ps.id[i], got)
		}
	}
	for id, slot := range e.ps.byID {
		if slot < 0 {
			continue
		}
		live++
		if e.ps.id[slot] != cache.PeerID(id) {
			t.Fatalf("byID[%d]=%d but slot holds id %d", id, slot, e.ps.id[slot])
		}
	}
	if live != e.ps.len() {
		t.Fatalf("index table has %d live entries, slots %d", live, e.ps.len())
	}
}

func TestCacheHealthSampled(t *testing.T) {
	res := run(t, quickParams())
	if res.CacheSamples == 0 {
		t.Fatal("no cache samples")
	}
	if res.AvgCacheEntries <= 0 {
		t.Fatal("no cache entries observed")
	}
	if res.AvgLiveEntries > res.AvgCacheEntries {
		t.Fatalf("live entries %v exceed held %v", res.AvgLiveEntries, res.AvgCacheEntries)
	}
	if res.AvgLiveFraction < 0 || res.AvgLiveFraction > 1 {
		t.Fatalf("live fraction %v outside [0,1]", res.AvgLiveFraction)
	}
}

func TestSatisfiedQueriesNeedFewerProbesWithMFS(t *testing.T) {
	base := quickParams()
	base.Seed = 5

	mfs := base
	mfs.QueryPong = policy.SelMFS
	mfs.CacheReplacement = policy.EvLFS

	rnd := run(t, base)
	good := run(t, mfs)
	if good.ProbesPerQuery() >= rnd.ProbesPerQuery() {
		t.Fatalf("MFS/LFS (%.1f probes/query) not better than Random (%.1f)",
			good.ProbesPerQuery(), rnd.ProbesPerQuery())
	}
}

func TestConnectivitySampling(t *testing.T) {
	p := quickParams()
	p.QueriesEnabled = false
	p.SampleConnectivity = true
	res := run(t, p)
	if res.ConnectivityRuns == 0 {
		t.Fatal("no connectivity samples")
	}
	if res.AvgLargestWCC <= 0 || res.AvgLargestWCC > float64(p.NetworkSize) {
		t.Fatalf("AvgLargestWCC = %v", res.AvgLargestWCC)
	}
	if res.FinalLargestWCC <= 0 || res.FinalLargestWCC > p.NetworkSize {
		t.Fatalf("FinalLargestWCC = %d", res.FinalLargestWCC)
	}
	// With default ping interval and cache size the overlay should be
	// essentially fully connected.
	if res.AvgLargestWCC < 0.9*float64(p.NetworkSize) {
		t.Fatalf("overlay unexpectedly fragmented: %v", res.AvgLargestWCC)
	}
	if res.Queries != 0 {
		t.Fatal("queries ran while disabled")
	}
}

func TestQueriesDisabledSkipsQueryRateValidation(t *testing.T) {
	p := quickParams()
	p.QueriesEnabled = false
	p.QueryRate = 0
	if _, err := New(p); err != nil {
		t.Fatalf("QueryRate=0 rejected with queries disabled: %v", err)
	}
}

func TestCapacityLimitsCauseRefusals(t *testing.T) {
	p := quickParams()
	p.MaxProbesPerSecond = 1
	p.QueryRate = 0.05
	p.QueryProbe = policy.SelMFS
	p.QueryPong = policy.SelMFS
	p.CacheReplacement = policy.EvLFS
	res := run(t, p)
	if res.RefusedProbes == 0 {
		t.Fatal("no refusals under capacity 1 with load-concentrating policies")
	}
	unlimited := quickParams()
	unlimited.MaxProbesPerSecond = 0
	res2 := run(t, unlimited)
	if res2.RefusedProbes != 0 {
		t.Fatal("refusals with unlimited capacity")
	}
}

func TestBackoffSuppressesInsteadOfEvicting(t *testing.T) {
	p := quickParams()
	p.MaxProbesPerSecond = 1
	p.QueryRate = 0.05
	p.DoBackoff = true
	p.BackoffPeriod = 120
	res := run(t, p)
	// The run must still complete queries and account probes correctly.
	if res.Queries == 0 {
		t.Fatal("no queries with backoff enabled")
	}
	if res.ProbesTotal != res.GoodProbes+res.DeadProbes+res.RefusedProbes {
		t.Fatal("probe accounting broken with backoff")
	}
}

func TestMaliciousPeersDegradeMFS(t *testing.T) {
	base := quickParams()
	base.MeasureTime = 600
	base.QueryProbe = policy.SelMFS
	base.QueryPong = policy.SelMFS
	base.CacheReplacement = policy.EvLFS

	clean := run(t, base)

	poisoned := base
	poisoned.PercentBadPeers = 20
	poisoned.BadPong = BadPongDead
	bad := run(t, poisoned)

	if bad.Unsatisfaction() <= clean.Unsatisfaction() {
		t.Fatalf("poisoning did not hurt MFS: clean %.3f vs poisoned %.3f",
			clean.Unsatisfaction(), bad.Unsatisfaction())
	}
	if bad.AvgGoodEntries >= clean.AvgGoodEntries {
		t.Fatalf("good cache entries not reduced: clean %.1f vs poisoned %.1f",
			clean.AvgGoodEntries, bad.AvgGoodEntries)
	}
}

func TestMaliciousFractionPreservedUnderChurn(t *testing.T) {
	p := quickParams()
	p.PercentBadPeers = 20
	p.BadPong = BadPongBad
	p.LifespanMultiplier = 0.1
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := float64(len(e.bad)) / float64(e.ps.len())
	if math.Abs(got-0.2) > 0.001 {
		t.Fatalf("malicious fraction drifted to %v", got)
	}
	for _, b := range e.bad {
		slot := e.ps.slotOf(b)
		if slot < 0 {
			t.Fatalf("dead peer %d in bad list", b)
		}
		if !e.ps.malicious[slot] {
			t.Fatal("non-malicious peer in bad list")
		}
	}
}

func TestMRStarMoreRobustThanMFSUnderCollusion(t *testing.T) {
	mk := func(sel policy.Selection, ev policy.Eviction) Params {
		p := quickParams()
		p.MeasureTime = 600
		p.QueryProbe = sel
		p.QueryPong = sel
		p.CacheReplacement = ev
		p.PercentBadPeers = 20
		p.BadPong = BadPongBad
		return p
	}
	mfs := run(t, mk(policy.SelMFS, policy.EvLFS))
	mrStar := run(t, mk(policy.SelMRStar, policy.EvLRStar))
	if mrStar.Unsatisfaction() >= mfs.Unsatisfaction() {
		t.Fatalf("MR* (%.3f unsat) not more robust than MFS (%.3f) under collusion",
			mrStar.Unsatisfaction(), mfs.Unsatisfaction())
	}
}

func TestParallelProbesReduceResponseTime(t *testing.T) {
	serial := quickParams()
	serial.Seed = 11
	parallel := serial
	parallel.ParallelProbes = 10
	a := run(t, serial)
	b := run(t, parallel)
	if b.AvgResponseTime() >= a.AvgResponseTime() {
		t.Fatalf("parallel probes did not cut response time: %.2fs vs %.2fs",
			b.AvgResponseTime(), a.AvgResponseTime())
	}
	// Parallelism wastes at most ~k-1 extra probes per query.
	if b.ProbesPerQuery() > a.ProbesPerQuery()+float64(parallel.ParallelProbes) {
		t.Fatalf("parallel probes cost too much: %.1f vs %.1f",
			b.ProbesPerQuery(), a.ProbesPerQuery())
	}
}

func TestMaxProbesPerQueryTruncates(t *testing.T) {
	p := quickParams()
	p.MaxProbesPerQuery = 5
	res := run(t, p)
	if res.Queries == 0 {
		t.Fatal("no queries")
	}
	if got := res.ProbesPerQuery(); got > 5.01 {
		t.Fatalf("probes per query %v exceeds cap 5", got)
	}
}

func TestPeerLoadsRecorded(t *testing.T) {
	res := run(t, quickParams())
	if len(res.PeerLoads) == 0 {
		t.Fatal("no peer loads recorded")
	}
	ranked := res.RankedLoads()
	for i := 1; i < len(ranked); i++ {
		if ranked[i] > ranked[i-1] {
			t.Fatal("RankedLoads not descending")
		}
	}
	var sum int64
	for _, l := range res.PeerLoads {
		sum += l
	}
	if sum != res.TotalLoad() {
		t.Fatal("TotalLoad mismatch")
	}
	if sum == 0 {
		t.Fatal("no load recorded at all")
	}
}

func TestResultsZeroQueriesSafe(t *testing.T) {
	var r Results
	if r.ProbesPerQuery() != 0 || r.Unsatisfaction() != 0 || r.AvgResponseTime() != 0 {
		t.Fatal("per-query metrics on empty results not zero")
	}
}

func TestBadPongBehaviorString(t *testing.T) {
	if BadPongDead.String() != "Dead" || BadPongBad.String() != "Bad" || BadPongGood.String() != "Good" {
		t.Fatal("BadPongBehavior names wrong")
	}
}

// TestLargestWCCMatchesOverlayGraph checks the engine's union-find
// connectivity sample exactly against the reference implementation,
// overlay.Builder plus Graph.LargestWCC over the same link caches. The
// runs churn, so caches hold dead entries, and the smallest cache
// fragments the overlay, so the check covers more than the
// everyone-connected case.
func TestLargestWCCMatchesOverlayGraph(t *testing.T) {
	var fragmented, deadSeen bool
	for _, cacheSize := range []int{2, 5, 20} {
		for _, seed := range []uint64{3, 4} {
			p := quickParams()
			p.CacheSize = cacheSize
			p.LifespanMultiplier = 0.3
			p.SampleConnectivity = true
			p.Seed = seed
			e, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Deaths == 0 || res.ConnectivityRuns == 0 {
				t.Fatalf("cache %d seed %d: no churn or no samples: %+v", cacheSize, seed, res)
			}

			b := overlay.NewBuilder(e.ps.len())
			for i := 0; i < e.ps.len(); i++ {
				if err := b.AddNode(e.ps.id[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < e.ps.len(); i++ {
				for _, entry := range e.ps.link[i].Entries() {
					if err := b.AddEdge(e.ps.id[i], entry.Addr); err != nil {
						t.Fatal(err)
					}
				}
			}
			g, dead := b.Graph()
			want := g.LargestWCC()
			got := e.largestWCC()
			fragmented = fragmented || want < e.ps.len()
			deadSeen = deadSeen || dead > 0
			if got != want {
				t.Fatalf("cache %d seed %d: largestWCC = %d, overlay graph says %d",
					cacheSize, seed, got, want)
			}
			if res.FinalLargestWCC != want {
				t.Fatalf("cache %d seed %d: FinalLargestWCC = %d, overlay graph says %d",
					cacheSize, seed, res.FinalLargestWCC, want)
			}
		}
	}
	if !fragmented || !deadSeen {
		t.Fatalf("vacuous battery: fragmented=%v, dead entries seen=%v", fragmented, deadSeen)
	}
}
