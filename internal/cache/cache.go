// Package cache implements the GUESS link cache: the bounded,
// peer-local store of pointers to other peers (the peer's "neighbor
// list"). The per-query query cache ("scratch space") is a plain seen
// set in its users, core and node, since its entries live in a
// policy.Selector.
//
// A cache entry is the paper's pointer format
// {IP address, TS, NumFiles, NumRes} plus a Direct flag recording
// whether NumRes comes from the owner's own experience (needed by the
// MR* policy, which distrusts third-party result counts).
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// PeerID is a peer's address. In the simulator it doubles as the
// unique, monotonically increasing peer identifier; addresses of dead
// peers are never reused, and fabricated addresses (used by malicious
// peers to poison caches) come from a disjoint range.
type PeerID int64

// Entry is a pointer to another peer, the unit stored in the link
// cache and handed to policy selection.
type Entry struct {
	// Addr is the target peer's address.
	Addr PeerID
	// TS is the virtual time of the owner's last interaction with the
	// target (or the inherited timestamp, for entries learned from
	// pongs; the protocol forbids rewriting fields on insert).
	TS float64
	// NumFiles is the number of files the target advertises.
	NumFiles int32
	// NumRes is the number of results the target returned for the
	// owner's (or, if !Direct, some third party's) last query to it.
	NumRes int32
	// Direct records whether NumRes reflects the owner's own experience
	// with the target. Entries learned from pongs carry Direct=false
	// until the owner probes the target itself.
	Direct bool
}

// LinkCache is the bounded neighbor cache. It preserves insertion
// slots (stable indices are not guaranteed across removals) and
// rejects duplicate addresses. The zero value is unusable; call
// NewLinkCache.
//
// Lookups go through one open-addressed, linearly probed table at
// every capacity. The table is a power of two at least twice the
// capacity, so probe runs stay short even when the cache is full (the
// paper's usual state), and it holds 4-byte slot numbers rather than
// addresses: at capacity 32 it costs 256 B per peer, at the paper's
// default of 100 it costs 1 KiB. Link caches dominate the simulator's
// heap, so that per-peer cost bounds how many peers fit in memory.
type LinkCache struct {
	capacity int
	entries  []Entry
	// table maps an address's probe position to its entry: table[h] is
	// slot+1 for entries[slot], or 0 when position h is empty. Removal
	// shifts later members of a probe run back (no tombstones), so a
	// lookup may stop at the first empty position.
	table []int32
	// shift turns the 64-bit Fibonacci hash of an address into a home
	// position: 64 - log2(len(table)).
	shift uint8
}

// fibMul is 2^64 / φ, the Fibonacci-hashing multiplier: it spreads
// consecutive peer IDs (the simulator's common case) across the table.
const fibMul = 0x9E3779B97F4A7C15

// NewLinkCache returns an empty link cache with the given capacity
// (the paper's CacheSize). It panics if capacity <= 0, which is always
// a configuration bug, or if slot numbers would not fit the table.
func NewLinkCache(capacity int) *LinkCache {
	if capacity <= 0 || capacity > math.MaxInt32/2 {
		panic(fmt.Sprintf("cache: link cache capacity %d outside [1, %d]", capacity, math.MaxInt32/2))
	}
	logSize := bits.Len(uint(2*capacity - 1)) // smallest 2^k >= 2*capacity
	return &LinkCache{
		capacity: capacity,
		entries:  make([]Entry, 0, min(capacity, 256)),
		table:    make([]int32, 1<<logSize),
		shift:    uint8(64 - logSize),
	}
}

// home returns addr's preferred table position.
func (c *LinkCache) home(addr PeerID) int {
	return int(uint64(addr) * fibMul >> c.shift)
}

// pos returns the table position holding addr's slot, or the empty
// position that ends addr's probe run when addr is absent. The table
// is never more than half full, so the probe always terminates.
func (c *LinkCache) pos(addr PeerID) int {
	mask := len(c.table) - 1
	for h := c.home(addr); ; h = (h + 1) & mask {
		if s := c.table[h]; s == 0 || c.entries[s-1].Addr == addr {
			return h
		}
	}
}

// find returns addr's slot, or -1 when absent.
func (c *LinkCache) find(addr PeerID) int {
	return int(c.table[c.pos(addr)]) - 1
}

// unlink empties table position h by backward-shift deletion: walking
// the rest of the probe run, each member whose home is not cyclically
// within (hole, its position] moves back into the hole, which then
// moves to where it was. Every member stays reachable from its home
// without tombstones. unlink reads entries, so it must run before the
// slot it frees is overwritten.
func (c *LinkCache) unlink(h int) {
	mask := len(c.table) - 1
	for j := (h + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		home := c.home(c.entries[c.table[j]-1].Addr)
		if (j-home)&mask >= (j-h)&mask {
			c.table[h] = c.table[j]
			h = j
		}
	}
	c.table[h] = 0
}

// Cap returns the cache's capacity.
func (c *LinkCache) Cap() int { return c.capacity }

// Len returns the number of entries currently held.
func (c *LinkCache) Len() int { return len(c.entries) }

// Full reports whether the cache is at capacity.
func (c *LinkCache) Full() bool { return len(c.entries) >= c.capacity }

// Has reports whether addr is present.
func (c *LinkCache) Has(addr PeerID) bool {
	return c.find(addr) >= 0
}

// Get returns the entry for addr, if present.
func (c *LinkCache) Get(addr PeerID) (Entry, bool) {
	i := c.find(addr)
	if i < 0 {
		return Entry{}, false
	}
	return c.entries[i], true
}

// Entries exposes the cache's backing slice for policy scans.
//
// Aliasing contract: the returned slice IS the cache's internal
// storage, not a copy. Callers must not grow or reorder it, and must
// not retain it across any mutation of the cache (Add, Remove,
// ReplaceAt, Clear) — the backing array may be reallocated, truncated,
// or have entries swapped into different slots. Mutating entry fields
// in place (e.g. TS updates) is allowed and is how Touch and SetNumRes
// work. Callers that need a snapshot surviving later mutations copy
// it.
func (c *LinkCache) Entries() []Entry { return c.entries }

// Add inserts e if there is room and the address is not already
// present. It reports whether the entry was inserted. Use ReplaceAt for
// policy-driven replacement when full.
func (c *LinkCache) Add(e Entry) bool {
	if c.Full() {
		return false
	}
	h := c.pos(e.Addr)
	if c.table[h] != 0 {
		return false
	}
	c.entries = append(c.entries, e)
	c.table[h] = int32(len(c.entries))
	return true
}

// ReplaceAt evicts the entry at index i and installs e in its place.
// It panics if i is out of range or e.Addr is already present at a
// different slot — both indicate a broken replacement policy.
func (c *LinkCache) ReplaceAt(i int, e Entry) {
	if i < 0 || i >= len(c.entries) {
		panic(fmt.Sprintf("cache: ReplaceAt(%d) with %d entries", i, len(c.entries)))
	}
	if old := c.entries[i].Addr; old != e.Addr {
		if c.Has(e.Addr) {
			panic(fmt.Sprintf("cache: ReplaceAt would duplicate addr %d", e.Addr))
		}
		c.unlink(c.pos(old))
		c.table[c.pos(e.Addr)] = int32(i + 1)
	}
	c.entries[i] = e
}

// Remove deletes addr, reporting whether it was present. Removal is
// O(1) via swap-with-last, so entry order is not stable.
func (c *LinkCache) Remove(addr PeerID) bool {
	h := c.pos(addr)
	i := int(c.table[h]) - 1
	if i < 0 {
		return false
	}
	c.unlink(h)
	last := len(c.entries) - 1
	if i != last {
		moved := c.entries[last]
		c.table[c.pos(moved.Addr)] = int32(i + 1)
		c.entries[i] = moved
	}
	c.entries = c.entries[:last]
	return true
}

// Touch sets the TS field of addr's entry to now, if present. Per the
// protocol, TS is refreshed on every interaction regardless of which
// party initiated it.
func (c *LinkCache) Touch(addr PeerID, now float64) {
	if i := c.find(addr); i >= 0 {
		c.entries[i].TS = now
	}
}

// SetNumRes records the owner's direct experience: the target at addr
// just returned n results. It also marks the entry Direct.
func (c *LinkCache) SetNumRes(addr PeerID, n int32) {
	if i := c.find(addr); i >= 0 {
		c.entries[i].NumRes = n
		c.entries[i].Direct = true
	}
}

// Clear empties the cache while retaining its capacity and allocated
// storage, so simulators can recycle caches across peer generations
// (peer churn creates one cache per birth; a cleared cache behaves
// exactly like a fresh NewLinkCache of the same capacity).
func (c *LinkCache) Clear() {
	c.entries = c.entries[:0]
	clear(c.table)
}

// checkInvariants panics if the table and the entries slice disagree.
// It is called from tests only.
func (c *LinkCache) checkInvariants() {
	if len(c.entries) > c.capacity {
		panic("cache: over capacity")
	}
	used := 0
	for _, s := range c.table {
		if s != 0 {
			used++
		}
	}
	if used != len(c.entries) {
		panic(fmt.Sprintf("cache: %d table slots in use for %d entries", used, len(c.entries)))
	}
	for i, e := range c.entries {
		if j := c.find(e.Addr); j != i {
			panic("cache: table points to wrong slot")
		}
	}
}
