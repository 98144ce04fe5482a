// Package core implements the GUESS non-forwarding search protocol and
// the discrete-event simulator the paper's evaluation is built on.
//
// A simulation maintains NetworkSize live peers under churn. Each peer
// keeps a bounded link cache of pointers to other peers and maintains
// it with periodic pings; queries iterate over the link cache and a
// per-query query cache, probing one peer (or ParallelProbes peers) per
// probe interval until enough results arrive or the candidates are
// exhausted. All five policy families from the paper — QueryProbe,
// QueryPong, PingProbe, PingPong and CacheReplacement — are pluggable,
// and misbehaving peers (cache poisoning with dead or colluding
// addresses) and capacity limits (probe refusal, back-off) are modeled.
package core

import (
	"fmt"
	"io"

	"repro/internal/content"
	"repro/internal/policy"
	"repro/internal/workload"
)

// BadPongBehavior is the kind of IP address a malicious peer returns in
// its pongs (the paper's BadPongBehavior system parameter).
type BadPongBehavior int

const (
	// BadPongDead returns fabricated addresses of nonexistent peers;
	// every probe to them is wasted. Non-colluding attack.
	BadPongDead BadPongBehavior = iota + 1
	// BadPongBad returns addresses of other malicious peers; the
	// colluding attack that defeats the MR policy.
	BadPongBad
	// BadPongGood returns genuine entries from the malicious peer's
	// own link cache (the peer still never returns query results).
	BadPongGood
)

// String returns the paper's name for the behavior.
func (b BadPongBehavior) String() string {
	switch b {
	case BadPongDead:
		return "Dead"
	case BadPongBad:
		return "Bad"
	case BadPongGood:
		return "Good"
	default:
		return fmt.Sprintf("BadPongBehavior(%d)", int(b))
	}
}

// ParseBadPongBehavior resolves a behavior name ("Dead", "Bad",
// "Good").
func ParseBadPongBehavior(name string) (BadPongBehavior, error) {
	switch name {
	case "Dead":
		return BadPongDead, nil
	case "Bad":
		return BadPongBad, nil
	case "Good":
		return BadPongGood, nil
	default:
		return 0, fmt.Errorf("core: unknown BadPongBehavior %q", name)
	}
}

// MarshalText encodes the behavior by name.
func (b BadPongBehavior) MarshalText() ([]byte, error) {
	switch b {
	case BadPongDead, BadPongBad, BadPongGood:
		return []byte(b.String()), nil
	case 0:
		// Zero is allowed so configurations without malicious peers
		// serialize cleanly.
		return []byte(""), nil
	default:
		return nil, fmt.Errorf("core: cannot marshal BadPongBehavior %d", int(b))
	}
}

// UnmarshalText decodes a behavior name; empty text leaves it unset.
func (b *BadPongBehavior) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*b = 0
		return nil
	}
	parsed, err := ParseBadPongBehavior(string(text))
	if err != nil {
		return err
	}
	*b = parsed
	return nil
}

// Params configures one simulation run. It merges the paper's system
// parameters (Table 1) and protocol parameters (Table 2) with the
// simulation-control knobs (durations, seed). Use DefaultParams and
// override fields.
type Params struct {
	// --- System parameters (Table 1) ---

	// NetworkSize is the number of live peers, held constant by
	// replacing every dead peer with a newborn.
	NetworkSize int
	// NumDesiredResults is how many results satisfy a query.
	NumDesiredResults int
	// LifespanMultiplier scales every peer lifetime.
	LifespanMultiplier float64
	// QueryRate is the expected number of queries per user per second.
	QueryRate float64
	// MaxProbesPerSecond is the per-peer probe capacity; beyond it a
	// peer refuses probes. Zero or negative means unlimited.
	MaxProbesPerSecond int
	// PercentBadPeers is the percentage (0..100) of malicious peers.
	PercentBadPeers float64
	// BadPong selects the malicious pong behavior.
	BadPong BadPongBehavior

	// --- Protocol parameters (Table 2) ---

	// QueryProbe orders query probes; QueryPong selects pong entries
	// answering queries; PingProbe orders maintenance pings; PingPong
	// selects pong entries answering pings.
	QueryProbe, QueryPong, PingProbe, PingPong policy.Selection
	// CacheReplacement picks link-cache eviction victims.
	CacheReplacement policy.Eviction
	// PingInterval is the seconds between a peer's maintenance pings.
	PingInterval float64
	// CacheSize is the link cache capacity.
	CacheSize int
	// ResetNumResults zeroes the NumRes field of entries learned from
	// pongs (the literal MR* ingestion rule).
	ResetNumResults bool
	// DoBackoff makes a refused prober suppress the overloaded target
	// for BackoffPeriod instead of dropping it from the cache.
	DoBackoff bool
	// BackoffPeriod is the suppression window when DoBackoff is set.
	BackoffPeriod float64
	// PongSize is the number of addresses carried per pong.
	PongSize int
	// IntroProb is the probability a probed/pinged peer adds the
	// initiator to its own cache (the introduction protocol).
	IntroProb float64
	// CacheSeedSize is the number of live peers seeded into each link
	// cache at time zero. Zero means NetworkSize/100 (minimum 1).
	CacheSeedSize int

	// --- Query execution (Section 6.2) ---

	// ProbeSpacing is the seconds between successive probe rounds of a
	// query (the GUESS specification's 0.2 s timeout).
	ProbeSpacing float64
	// ParallelProbes is the number of probes sent per round (the
	// paper's parallel-walk k; 1 reproduces the strictly serial spec).
	ParallelProbes int
	// MaxProbesPerQuery truncates a query after this many probes; zero
	// means probe until the candidate set is exhausted.
	MaxProbesPerQuery int
	// QueriesEnabled turns query traffic on. The connectivity
	// experiments (Figures 6-7) run with queries disabled to isolate
	// the effect of pings.
	QueriesEnabled bool

	// --- Extensions (the paper's future-work proposals; all off by
	// default so the baseline protocol matches the paper exactly) ---

	// AdaptiveParallel implements Section 6.2's response-time proposal:
	// if AdaptiveParallelWindow seconds pass without a new result, the
	// query doubles its probe parallelism (capped by
	// MaxParallelProbes).
	AdaptiveParallel bool
	// AdaptiveParallelWindow is the no-progress window in seconds.
	AdaptiveParallelWindow float64
	// MaxParallelProbes caps adaptive parallelism.
	MaxParallelProbes int

	// AdaptivePing implements Section 6.1's guideline: peers shorten
	// their ping interval when many probes hit dead addresses and relax
	// it when almost all entries are live.
	AdaptivePing bool
	// AdaptivePingMin and AdaptivePingMax bound the per-peer interval.
	AdaptivePingMin, AdaptivePingMax float64
	// AdaptivePingLowLive and AdaptivePingHighLive are the live-entry
	// fractions below/above which the interval shrinks/grows.
	AdaptivePingLowLive, AdaptivePingHighLive float64

	// PercentSelfishPeers is the percentage (0..100) of peers that game
	// the protocol per Section 3.3: instead of probing serially they
	// blast SelfishParallelProbes probes per round to minimize their
	// own response time, inflating everyone else's load.
	PercentSelfishPeers float64
	// SelfishParallelProbes is the selfish per-round fan-out.
	SelfishParallelProbes int
	// ProbePayments models the paper's incentive proposal: with a
	// per-probe price in force, selfish peers are motivated to follow
	// the serial protocol again.
	ProbePayments bool

	// PoisonDetection enables the Section 6.4 heuristic: peers track
	// which neighbor supplied each cache entry, blame suppliers of dead
	// addresses, and blacklist a supplier whose pong entries are
	// persistently dead.
	PoisonDetection bool
	// PoisonThreshold is the dead fraction that triggers blacklisting.
	PoisonThreshold float64
	// PoisonMinSamples is the minimum supplied-entry count before a
	// supplier can be judged.
	PoisonMinSamples int

	// --- Content model ---

	Content content.Params

	// --- Simulation control ---

	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// WarmupTime is simulated seconds before measurement starts.
	WarmupTime float64
	// MeasureTime is the simulated measurement window in seconds.
	MeasureTime float64
	// SampleInterval is the spacing of cache-health samples.
	SampleInterval float64
	// SampleConnectivity additionally computes the largest weakly
	// connected component of the conceptual overlay at every sample
	// (costly; used by the connectivity experiments).
	SampleConnectivity bool
	// Trace, when non-nil, receives a CSV time series with one row per
	// sample (time, churn, query and cache-health counters) for
	// plotting a run's evolution. Excluded from JSON configurations.
	Trace io.Writer `json:"-"`
}

// DefaultParams returns the paper's default configuration (Tables 1
// and 2) with calibrated content-model defaults and moderate run
// durations.
func DefaultParams() Params {
	return Params{
		NetworkSize:        1000,
		NumDesiredResults:  1,
		LifespanMultiplier: 1,
		QueryRate:          workload.DefaultQueryRate,
		MaxProbesPerSecond: 100,
		PercentBadPeers:    0,
		BadPong:            BadPongDead,

		QueryProbe:       policy.SelRandom,
		QueryPong:        policy.SelRandom,
		PingProbe:        policy.SelRandom,
		PingPong:         policy.SelRandom,
		CacheReplacement: policy.EvRandom,

		PingInterval:    30,
		CacheSize:       100,
		ResetNumResults: false,
		DoBackoff:       false,
		BackoffPeriod:   60,
		PongSize:        5,
		IntroProb:       0.1,
		CacheSeedSize:   0,

		ProbeSpacing:      0.2,
		ParallelProbes:    1,
		MaxProbesPerQuery: 0,
		QueriesEnabled:    true,

		AdaptiveParallel:       false,
		AdaptiveParallelWindow: 10,
		MaxParallelProbes:      64,

		AdaptivePing:         false,
		AdaptivePingMin:      5,
		AdaptivePingMax:      240,
		AdaptivePingLowLive:  0.7,
		AdaptivePingHighLive: 0.95,

		PercentSelfishPeers:   0,
		SelfishParallelProbes: 100,
		ProbePayments:         false,

		PoisonDetection:  false,
		PoisonThreshold:  0.8,
		PoisonMinSamples: 10,

		Content: content.DefaultParams(),

		Seed:           1,
		WarmupTime:     500,
		MeasureTime:    2000,
		SampleInterval: 30,
	}
}

// Validate reports the first configuration error found.
func (p Params) Validate() error {
	switch {
	case p.NetworkSize < 2:
		return fmt.Errorf("core: NetworkSize must be >= 2, got %d", p.NetworkSize)
	case p.NumDesiredResults < 1:
		return fmt.Errorf("core: NumDesiredResults must be >= 1, got %d", p.NumDesiredResults)
	case p.LifespanMultiplier <= 0:
		return fmt.Errorf("core: LifespanMultiplier must be positive, got %v", p.LifespanMultiplier)
	case p.QueriesEnabled && p.QueryRate <= 0:
		return fmt.Errorf("core: QueryRate must be positive, got %v", p.QueryRate)
	case p.PercentBadPeers < 0 || p.PercentBadPeers > 100:
		return fmt.Errorf("core: PercentBadPeers must be in [0,100], got %v", p.PercentBadPeers)
	case p.PercentBadPeers > 0 && p.BadPong == 0:
		return fmt.Errorf("core: BadPong must be set when PercentBadPeers > 0")
	case !p.QueryProbe.Valid():
		return fmt.Errorf("core: invalid QueryProbe policy")
	case !p.QueryPong.Valid():
		return fmt.Errorf("core: invalid QueryPong policy")
	case !p.PingProbe.Valid():
		return fmt.Errorf("core: invalid PingProbe policy")
	case !p.PingPong.Valid():
		return fmt.Errorf("core: invalid PingPong policy")
	case !p.CacheReplacement.Valid():
		return fmt.Errorf("core: invalid CacheReplacement policy")
	case p.PingInterval <= 0:
		return fmt.Errorf("core: PingInterval must be positive, got %v", p.PingInterval)
	case p.CacheSize < 1:
		return fmt.Errorf("core: CacheSize must be >= 1, got %d", p.CacheSize)
	case p.DoBackoff && p.BackoffPeriod <= 0:
		return fmt.Errorf("core: BackoffPeriod must be positive when DoBackoff is set")
	case p.PongSize < 0:
		return fmt.Errorf("core: PongSize must be >= 0, got %d", p.PongSize)
	case p.IntroProb < 0 || p.IntroProb > 1:
		return fmt.Errorf("core: IntroProb must be in [0,1], got %v", p.IntroProb)
	case p.CacheSeedSize < 0:
		return fmt.Errorf("core: CacheSeedSize must be >= 0, got %d", p.CacheSeedSize)
	case p.QueriesEnabled && p.ProbeSpacing <= 0:
		return fmt.Errorf("core: ProbeSpacing must be positive, got %v", p.ProbeSpacing)
	case p.QueriesEnabled && p.ParallelProbes < 1:
		return fmt.Errorf("core: ParallelProbes must be >= 1, got %d", p.ParallelProbes)
	case p.MaxProbesPerQuery < 0:
		return fmt.Errorf("core: MaxProbesPerQuery must be >= 0, got %d", p.MaxProbesPerQuery)
	case p.WarmupTime < 0:
		return fmt.Errorf("core: WarmupTime must be >= 0, got %v", p.WarmupTime)
	case p.MeasureTime <= 0:
		return fmt.Errorf("core: MeasureTime must be positive, got %v", p.MeasureTime)
	case p.SampleInterval <= 0:
		return fmt.Errorf("core: SampleInterval must be positive, got %v", p.SampleInterval)
	}
	switch {
	case p.AdaptiveParallel && p.AdaptiveParallelWindow <= 0:
		return fmt.Errorf("core: AdaptiveParallelWindow must be positive")
	case p.AdaptiveParallel && p.MaxParallelProbes < p.ParallelProbes:
		return fmt.Errorf("core: MaxParallelProbes %d below ParallelProbes %d",
			p.MaxParallelProbes, p.ParallelProbes)
	case p.AdaptivePing && (p.AdaptivePingMin <= 0 || p.AdaptivePingMax < p.AdaptivePingMin):
		return fmt.Errorf("core: adaptive ping bounds [%v, %v] invalid",
			p.AdaptivePingMin, p.AdaptivePingMax)
	case p.AdaptivePing && !(p.AdaptivePingLowLive >= 0 && p.AdaptivePingLowLive <= p.AdaptivePingHighLive && p.AdaptivePingHighLive <= 1):
		return fmt.Errorf("core: adaptive ping live thresholds [%v, %v] invalid",
			p.AdaptivePingLowLive, p.AdaptivePingHighLive)
	case p.PercentSelfishPeers < 0 || p.PercentSelfishPeers > 100:
		return fmt.Errorf("core: PercentSelfishPeers must be in [0,100], got %v", p.PercentSelfishPeers)
	case p.PercentSelfishPeers+p.PercentBadPeers > 100:
		return fmt.Errorf("core: selfish (%v%%) + malicious (%v%%) peers exceed 100%%",
			p.PercentSelfishPeers, p.PercentBadPeers)
	case p.PercentSelfishPeers > 0 && p.SelfishParallelProbes < 1:
		return fmt.Errorf("core: SelfishParallelProbes must be >= 1, got %d", p.SelfishParallelProbes)
	case p.PoisonDetection && (p.PoisonThreshold <= 0 || p.PoisonThreshold > 1):
		return fmt.Errorf("core: PoisonThreshold must be in (0,1], got %v", p.PoisonThreshold)
	case p.PoisonDetection && p.PoisonMinSamples < 1:
		return fmt.Errorf("core: PoisonMinSamples must be >= 1, got %d", p.PoisonMinSamples)
	}
	if err := p.Content.Validate(); err != nil {
		return fmt.Errorf("core: content model: %w", err)
	}
	return nil
}

// numSelfishPeers resolves the selfish peer count.
func (p Params) numSelfishPeers() int {
	return int(p.PercentSelfishPeers / 100 * float64(p.NetworkSize))
}

// seedSize resolves the effective CacheSeedSize.
func (p Params) seedSize() int {
	s := p.CacheSeedSize
	if s == 0 {
		s = p.NetworkSize / 100
	}
	if s < 1 {
		s = 1
	}
	if s > p.CacheSize {
		s = p.CacheSize
	}
	if s > p.NetworkSize-1 {
		s = p.NetworkSize - 1
	}
	return s
}

// numBadPeers resolves the malicious peer count.
func (p Params) numBadPeers() int {
	return int(p.PercentBadPeers / 100 * float64(p.NetworkSize))
}
