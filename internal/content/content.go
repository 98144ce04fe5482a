// Package content implements the file-sharing content and query model.
//
// The paper determines whether a probed peer answers a query using the
// hybrid-P2P query model of Yang & Garcia-Molina (VLDB 2001), with
// per-peer library sizes drawn from the Gnutella measurements of Saroiu
// et al. Neither artifact is available, so this package reimplements
// the model synthetically while preserving the properties the paper's
// results depend on:
//
//   - a universe of distinct items whose popularity follows a bounded
//     Zipf law; peers replicate items proportionally to popularity, so
//     popular items are highly replicated and tail items exist on only
//     a handful of peers (or none);
//   - per-peer library sizes are heavy-tailed with a free-rider mass at
//     zero, so a small set of peers holds most content (this is what
//     makes the MFS and MR policies effective and unfair);
//   - queries follow the same popularity law, plus a small mass of
//     queries for items that exist nowhere, so a fraction of queries is
//     unsatisfiable no matter how many peers are probed (the paper
//     reports ~6% at NetworkSize=1000).
//
// The probability that a peer answers a query thus depends on the
// number of files it shares, exactly as in the paper's model.
//
// A Library is an ascending slice of item ids, so Contains is a binary
// search. A Universe builds libraries through a bitset scratch it owns:
// NewLibrary and NewLibraryInto are not safe for concurrent use, while
// every other Universe method is read-only.
package content

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dist"
	"repro/internal/simrng"
)

// ItemID identifies a distinct shareable item. Valid items are in
// [0, NumItems); NoItem denotes a query for content that exists nowhere.
type ItemID int32

// NoItem is the target of a query for nonexistent content.
const NoItem ItemID = -1

// Params configures the content model. The zero value is not valid;
// use DefaultParams.
type Params struct {
	// NumItems is the number of distinct items in the universe.
	NumItems int
	// PopularityExp is the Zipf exponent of item replication.
	PopularityExp float64
	// QueryExp is the Zipf exponent of the query distribution.
	QueryExp float64
	// NonexistentQueryFraction is the probability that a query targets
	// an item that exists nowhere in the network.
	NonexistentQueryFraction float64
	// FreeRiderFraction is the probability that a peer shares no files.
	FreeRiderFraction float64
	// LibraryMu and LibrarySigma parameterize the log-normal body of
	// the library-size distribution for sharing peers.
	LibraryMu, LibrarySigma float64
	// MaxLibrary caps library sizes (0 means NumItems/4).
	MaxLibrary int
}

// DefaultParams returns the calibrated defaults used throughout the
// reproduction. With these values a 1000-peer network shows the
// paper's headline numbers: tens of good probes per query under the
// Random policy and a ~6% unsatisfiable-query floor.
func DefaultParams() Params {
	return Params{
		NumItems:                 10000,
		PopularityExp:            0.8,
		QueryExp:                 0.8,
		NonexistentQueryFraction: 0.05,
		FreeRiderFraction:        0.25,
		LibraryMu:                math.Log(120),
		LibrarySigma:             1.2,
		MaxLibrary:               0,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.NumItems <= 0:
		return fmt.Errorf("content: NumItems must be positive, got %d", p.NumItems)
	case p.PopularityExp < 0:
		return fmt.Errorf("content: PopularityExp must be >= 0, got %v", p.PopularityExp)
	case p.QueryExp < 0:
		return fmt.Errorf("content: QueryExp must be >= 0, got %v", p.QueryExp)
	case p.NonexistentQueryFraction < 0 || p.NonexistentQueryFraction >= 1:
		return fmt.Errorf("content: NonexistentQueryFraction must be in [0,1), got %v", p.NonexistentQueryFraction)
	case p.FreeRiderFraction < 0 || p.FreeRiderFraction >= 1:
		return fmt.Errorf("content: FreeRiderFraction must be in [0,1), got %v", p.FreeRiderFraction)
	case p.LibrarySigma < 0:
		return fmt.Errorf("content: LibrarySigma must be >= 0, got %v", p.LibrarySigma)
	case p.MaxLibrary < 0:
		return fmt.Errorf("content: MaxLibrary must be >= 0, got %d", p.MaxLibrary)
	}
	return nil
}

// Universe is the content universe shared by all peers in a
// simulation. Its model is fixed once constructed, but library sampling
// dedups items in a scratch bitset the Universe owns, so NewLibrary and
// NewLibraryInto must not run concurrently with each other. Every other
// method is read-only and safe for concurrent use.
type Universe struct {
	params   Params
	itemPop  *dist.Zipf // replication popularity
	queryPop *dist.Zipf // query popularity
	libSize  dist.Sampler
	maxLib   int
	seen     []uint64 // NumItems-bit library-sampling scratch, zero between calls
}

// New builds a Universe from params.
func New(params Params) (*Universe, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	itemPop, err := dist.NewZipf(params.NumItems, params.PopularityExp)
	if err != nil {
		return nil, fmt.Errorf("content: item popularity: %w", err)
	}
	queryPop, err := dist.NewZipf(params.NumItems, params.QueryExp)
	if err != nil {
		return nil, fmt.Errorf("content: query popularity: %w", err)
	}
	maxLib := params.MaxLibrary
	if maxLib == 0 {
		maxLib = params.NumItems / 4
	}
	if maxLib > params.NumItems {
		maxLib = params.NumItems
	}
	return &Universe{
		params:   params,
		itemPop:  itemPop,
		queryPop: queryPop,
		libSize:  dist.LogNormal{Mu: params.LibraryMu, Sigma: params.LibrarySigma},
		maxLib:   maxLib,
		seen:     make([]uint64, (params.NumItems+63)/64),
	}, nil
}

// MustNew is New but panics on error; for tests.
func MustNew(params Params) *Universe {
	u, err := New(params)
	if err != nil {
		panic(err)
	}
	return u
}

// Params returns the universe's configuration.
func (u *Universe) Params() Params { return u.params }

// NumItems returns the number of distinct items.
func (u *Universe) NumItems() int { return u.params.NumItems }

// MaxLibrary returns the largest library size the universe will
// produce. Malicious peers advertise this value to look maximally
// attractive under file-count-based policies.
func (u *Universe) MaxLibrary() int { return u.maxLib }

// SampleLibrarySize draws the number of files a newly born peer shares.
// Free riders share zero files.
func (u *Universe) SampleLibrarySize(r *simrng.RNG) int {
	if r.Bool(u.params.FreeRiderFraction) {
		return 0
	}
	size := int(u.libSize.Sample(r))
	if size < 1 {
		size = 1
	}
	if size > u.maxLib {
		size = u.maxLib
	}
	return size
}

// NewLibrary samples a library of exactly size distinct items, each
// drawn in proportion to item popularity. size is clamped to the
// universe's maximum.
func (u *Universe) NewLibrary(r *simrng.RNG, size int) Library {
	return u.NewLibraryInto(r, size, Library{})
}

// NewLibraryInto is NewLibrary reusing recycle's storage: the recycled
// library's slice is overwritten in place, so simulators under churn
// can recycle dead peers' libraries instead of allocating one per
// birth. The draws from r do not depend on recycle, so recycling never
// perturbs a seeded run. recycle must not be in use by any live peer;
// pass Library{} to allocate fresh.
func (u *Universe) NewLibraryInto(r *simrng.RNG, size int, recycle Library) Library {
	if size <= 0 {
		return Library{}
	}
	if size > u.maxLib {
		size = u.maxLib
	}
	// Popularity-weighted rejection sampling; popular items collide
	// often for large libraries, so bound the attempts and top up with
	// uniform unseen items (these late additions are tail items, which
	// keeps the popularity weighting essentially intact).
	n := 0
	budget := 10 * size
	for n < size && budget > 0 {
		budget--
		n += u.mark(ItemID(u.itemPop.Rank(r)))
	}
	for n < size {
		n += u.mark(ItemID(r.Intn(u.params.NumItems)))
	}
	// Emit the marked items in ascending order, zeroing the scratch.
	items := slices.Grow(recycle.items[:0], size)
	for w, word := range u.seen {
		if word == 0 {
			continue
		}
		u.seen[w] = 0
		for ; word != 0; word &= word - 1 {
			items = append(items, ItemID(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return Library{items: items}
}

// mark sets id's bit in the sampling scratch and returns 1 if it was
// newly set, 0 if id was already drawn.
func (u *Universe) mark(id ItemID) int {
	w, bit := id>>6, uint64(1)<<(id&63)
	if u.seen[w]&bit != 0 {
		return 0
	}
	u.seen[w] |= bit
	return 1
}

// DrawQuery samples the target item of a query: NoItem with probability
// NonexistentQueryFraction, otherwise a popularity-weighted item.
func (u *Universe) DrawQuery(r *simrng.RNG) ItemID {
	if r.Bool(u.params.NonexistentQueryFraction) {
		return NoItem
	}
	return ItemID(u.queryPop.Rank(r))
}

// ItemProb returns the replication probability mass of item id.
func (u *Universe) ItemProb(id ItemID) float64 {
	return u.itemPop.Prob(int(id))
}

// Library is the set of items a peer shares, held as a strictly
// ascending slice. The zero value is an empty library (a free rider).
type Library struct {
	items []ItemID
}

// Size returns the number of files shared — the peer's NumFiles.
func (l Library) Size() int { return len(l.items) }

// Contains reports whether the library holds item id. It is always
// false for NoItem.
func (l Library) Contains(id ItemID) bool {
	_, ok := slices.BinarySearch(l.items, id)
	return ok
}

// Results returns the number of results the peer returns for a query
// targeting id (0 or 1 in this model: a peer holds at most one copy of
// an item).
func (l Library) Results(id ItemID) int {
	if l.Contains(id) {
		return 1
	}
	return 0
}

// Items returns a copy of the library's items in ascending order.
func (l Library) Items() []ItemID { return slices.Clone(l.items) }
