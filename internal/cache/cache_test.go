package cache

import (
	"fmt"
	"testing"

	"repro/internal/simrng"
)

func TestNewLinkCachePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLinkCache(0) did not panic")
		}
	}()
	NewLinkCache(0)
}

func TestAddAndGet(t *testing.T) {
	c := NewLinkCache(3)
	e := Entry{Addr: 7, TS: 1.5, NumFiles: 10, NumRes: 2, Direct: true}
	if !c.Add(e) {
		t.Fatal("Add failed on empty cache")
	}
	got, ok := c.Get(7)
	if !ok || got != e {
		t.Fatalf("Get(7) = %+v, %v", got, ok)
	}
	if c.Len() != 1 || c.Full() {
		t.Fatalf("Len=%d Full=%v after one add", c.Len(), c.Full())
	}
	c.checkInvariants()
}

func TestAddRejectsDuplicates(t *testing.T) {
	c := NewLinkCache(3)
	c.Add(Entry{Addr: 1, NumFiles: 5})
	if c.Add(Entry{Addr: 1, NumFiles: 99}) {
		t.Fatal("duplicate address accepted")
	}
	got, _ := c.Get(1)
	if got.NumFiles != 5 {
		t.Fatal("duplicate add overwrote existing entry")
	}
}

func TestAddRejectsWhenFull(t *testing.T) {
	c := NewLinkCache(2)
	c.Add(Entry{Addr: 1})
	c.Add(Entry{Addr: 2})
	if c.Add(Entry{Addr: 3}) {
		t.Fatal("Add succeeded on full cache")
	}
	if !c.Full() {
		t.Fatal("cache not reported full")
	}
}

func TestReplaceAt(t *testing.T) {
	c := NewLinkCache(2)
	c.Add(Entry{Addr: 1})
	c.Add(Entry{Addr: 2})
	c.ReplaceAt(0, Entry{Addr: 3, NumFiles: 9})
	if c.Has(1) {
		t.Fatal("evicted entry still present")
	}
	got, ok := c.Get(3)
	if !ok || got.NumFiles != 9 {
		t.Fatalf("replacement missing: %+v %v", got, ok)
	}
	c.checkInvariants()
}

func TestReplaceAtSameAddrSameSlot(t *testing.T) {
	c := NewLinkCache(2)
	c.Add(Entry{Addr: 1, NumFiles: 1})
	c.ReplaceAt(0, Entry{Addr: 1, NumFiles: 42})
	got, _ := c.Get(1)
	if got.NumFiles != 42 {
		t.Fatal("in-place replace failed")
	}
	c.checkInvariants()
}

func TestReplaceAtPanicsOnDuplicate(t *testing.T) {
	c := NewLinkCache(3)
	c.Add(Entry{Addr: 1})
	c.Add(Entry{Addr: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("ReplaceAt duplicating an addr did not panic")
		}
	}()
	c.ReplaceAt(0, Entry{Addr: 2})
}

func TestReplaceAtPanicsOutOfRange(t *testing.T) {
	c := NewLinkCache(3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ReplaceAt did not panic")
		}
	}()
	c.ReplaceAt(0, Entry{Addr: 1})
}

func TestRemove(t *testing.T) {
	c := NewLinkCache(4)
	for i := PeerID(1); i <= 4; i++ {
		c.Add(Entry{Addr: i})
	}
	if !c.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	if c.Remove(2) {
		t.Fatal("second Remove(2) succeeded")
	}
	if c.Len() != 3 || c.Has(2) {
		t.Fatal("entry still present after removal")
	}
	for _, id := range []PeerID{1, 3, 4} {
		if !c.Has(id) {
			t.Fatalf("entry %d lost by unrelated removal", id)
		}
	}
	c.checkInvariants()
}

func TestTouchAndSetNumRes(t *testing.T) {
	c := NewLinkCache(2)
	c.Add(Entry{Addr: 5, TS: 1})
	c.Touch(5, 9.5)
	if e, _ := c.Get(5); e.TS != 9.5 {
		t.Fatalf("Touch: TS = %v", e.TS)
	}
	c.SetNumRes(5, 3)
	if e, _ := c.Get(5); e.NumRes != 3 || !e.Direct {
		t.Fatalf("SetNumRes: %+v", e)
	}
	// No-ops on absent addresses.
	c.Touch(99, 1)
	c.SetNumRes(99, 1)
	c.checkInvariants()
}

func TestClearRetainsCapacityAndEmpties(t *testing.T) {
	c := NewLinkCache(3)
	for i := 1; i <= 3; i++ {
		c.Add(Entry{Addr: PeerID(i)})
	}
	c.Clear()
	c.checkInvariants()
	if c.Len() != 0 || c.Cap() != 3 || c.Full() {
		t.Fatalf("cleared cache: len=%d cap=%d full=%v", c.Len(), c.Cap(), c.Full())
	}
	if c.Has(1) {
		t.Fatal("cleared cache still has entry")
	}
	// Behaves like a fresh cache afterwards.
	for i := 4; i <= 6; i++ {
		if !c.Add(Entry{Addr: PeerID(i)}) {
			t.Fatalf("add %d after Clear failed", i)
		}
	}
	if !c.Full() {
		t.Fatal("refilled cache not full")
	}
	c.checkInvariants()
}

// model is the reference a LinkCache is checked against: a map from
// address to entry for membership and contents, plus the slot order
// that append-on-Add and swap-with-last Remove must produce. Policies
// choose by slot, so the order feeds the simulator's RNG draw sequence
// and must not depend on the index.
type model struct {
	capacity int
	m        map[PeerID]Entry
	order    []PeerID
}

func newModel(capacity int) *model {
	return &model{capacity: capacity, m: make(map[PeerID]Entry)}
}

func (m *model) add(e Entry) bool {
	if _, ok := m.m[e.Addr]; ok || len(m.order) >= m.capacity {
		return false
	}
	m.m[e.Addr] = e
	m.order = append(m.order, e.Addr)
	return true
}

func (m *model) remove(addr PeerID) bool {
	if _, ok := m.m[addr]; !ok {
		return false
	}
	delete(m.m, addr)
	for i, a := range m.order {
		if a == addr {
			last := len(m.order) - 1
			m.order[i] = m.order[last]
			m.order = m.order[:last]
			break
		}
	}
	return true
}

// collidingAddrs returns n addresses, the smallest at or above base,
// whose home position in a capacity-sized cache's table is one of the
// last two. Filled in, they form one probe run that wraps past the end
// of the table.
func collidingAddrs(capacity, n int, base PeerID) []PeerID {
	c := NewLinkCache(capacity)
	out := make([]PeerID, 0, n)
	for a := base; len(out) < n; a++ {
		if c.home(a) >= len(c.table)-2 {
			out = append(out, a)
		}
	}
	return out
}

// mixedPool returns the address pool for a capacity-sized cache:
// dense small IDs, wide ones from the fabricated-address range (at or
// above 1<<40), and wide ones that collide at the end of the table.
// It holds more addresses than the cache, so scripts fill it.
func mixedPool(capacity int) []PeerID {
	n := capacity/2 + 16
	pool := collidingAddrs(capacity, min(n, 32), 1<<40+1<<20)
	for i := 0; i < n; i++ {
		pool = append(pool, PeerID(i), 1<<40+PeerID(i))
	}
	return pool
}

// runScript decodes an op script and applies each op to a fresh
// capacity-sized LinkCache and to the model, failing at the first
// disagreement in a return value, a lookup, or the slot-ordered
// contents. An op is one byte (its low three bits pick the kind), then
// two bytes indexing pool for the address; ReplaceAt reads one more
// byte for the slot. A short script reads zeros past its end. It
// returns the most entries the cache held.
func runScript(t *testing.T, capacity int, pool []PeerID, script []byte) (peak int) {
	t.Helper()
	c := NewLinkCache(capacity)
	m := newModel(capacity)
	k := 0
	next := func() byte {
		if k >= len(script) {
			return 0
		}
		k++
		return script[k-1]
	}
	for k < len(script) {
		op := next()
		addr := pool[(int(next())<<8|int(next()))%len(pool)]
		ts := float64(k)
		var desc string
		switch op % 8 {
		case 0, 1:
			e := Entry{Addr: addr, TS: ts, NumFiles: int32(op), NumRes: int32(k % 5)}
			desc = fmt.Sprintf("Add(%d)", addr)
			if got, want := c.Add(e), m.add(e); got != want {
				t.Fatalf("op %d: %s = %v, model %v", k, desc, got, want)
			}
		case 2:
			desc = fmt.Sprintf("Remove(%d)", addr)
			if got, want := c.Remove(addr), m.remove(addr); got != want {
				t.Fatalf("op %d: %s = %v, model %v", k, desc, got, want)
			}
		case 3:
			desc = fmt.Sprintf("Touch(%d)", addr)
			c.Touch(addr, ts)
			if e, ok := m.m[addr]; ok {
				e.TS = ts
				m.m[addr] = e
			}
		case 4:
			desc = fmt.Sprintf("SetNumRes(%d)", addr)
			c.SetNumRes(addr, int32(op))
			if e, ok := m.m[addr]; ok {
				e.NumRes, e.Direct = int32(op), true
				m.m[addr] = e
			}
		case 5:
			slot := int(next())
			if len(m.order) == 0 {
				continue
			}
			i := slot % len(m.order)
			victim := m.order[i]
			e := Entry{Addr: addr, TS: ts, NumFiles: int32(slot)}
			desc = fmt.Sprintf("ReplaceAt(%d, %d) over %d", i, addr, victim)
			if _, dup := m.m[addr]; dup && addr != victim {
				if !panics(func() { c.ReplaceAt(i, e) }) {
					t.Fatalf("op %d: %s duplicated an address without panicking", k, desc)
				}
				break
			}
			c.ReplaceAt(i, e)
			delete(m.m, victim)
			m.m[addr] = e
			m.order[i] = addr
		case 6:
			desc = fmt.Sprintf("Get(%d)", addr)
			got, ok := c.Get(addr)
			want, wantOK := m.m[addr]
			if got != want || ok != wantOK || c.Has(addr) != wantOK {
				t.Fatalf("op %d: %s = %+v, %v; model %+v, %v", k, desc, got, ok, want, wantOK)
			}
		case 7:
			desc = "Clear"
			if op < 0xF8 {
				continue // Clear is rare: scripts mostly build state
			}
			c.Clear()
			m = newModel(capacity)
		}
		verifyAgainstModel(t, c, m, fmt.Sprintf("op %d (%s)", k, desc))
		peak = max(peak, c.Len())
	}
	return peak
}

// verifyAgainstModel checks c's invariants (which include finding
// every entry at its slot), length and slot-ordered contents against m.
func verifyAgainstModel(t *testing.T, c *LinkCache, m *model, where string) {
	t.Helper()
	c.checkInvariants()
	if c.Len() != len(m.order) || c.Full() != (len(m.order) == m.capacity) {
		t.Fatalf("%s: Len=%d Full=%v, model holds %d of %d", where, c.Len(), c.Full(), len(m.order), m.capacity)
	}
	for i, e := range c.Entries() {
		if e.Addr != m.order[i] || e != m.m[e.Addr] {
			t.Fatalf("%s: slot %d = %+v, model %d -> %+v", where, i, e, m.order[i], m.m[m.order[i]])
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// randomScript returns n random op-script bytes.
func randomScript(r *simrng.RNG, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// phasedScript returns an op script for a capacity-sized cache over a
// poolLen-address pool. It cycles twice through filling (mostly adds
// of consecutive pool addresses, enough to fill the cache), mixed ops,
// and draining (mostly removes) ended by a Clear, so every capacity is
// driven from empty to full and back.
func phasedScript(r *simrng.RNG, poolLen, capacity int) []byte {
	var b []byte
	seq := 0
	for phase := 0; phase < 6; phase++ {
		for i := 0; i < 2*capacity+32; i++ {
			kind, idx := r.Intn(7), r.Intn(poolLen)
			switch {
			case phase%3 == 0 && r.Bool(0.8):
				kind, idx = 0, seq%poolLen
				seq++
			case phase%3 == 2 && r.Bool(0.6):
				kind = 2
			}
			// Upper bits vary the entry fields but stay below Clear's
			// 0xF8 threshold.
			b = append(b, byte(kind+8*r.Intn(31)), byte(idx>>8), byte(idx))
			if kind == 5 {
				b = append(b, byte(r.Intn(256)))
			}
		}
		if phase%3 == 2 {
			b = append(b, 0xFF, 0, 0)
		}
	}
	return b
}

// TestLinkCacheMatchesModel drives the cache at every capacity the
// repository uses, and at both sides of powers of two, from empty to
// full and back, checked op by op against the model. The colliding leg
// draws every address from ones whose home is one of the table's last
// two positions, so probe runs wrap around the end of the table and
// backward-shift deletion has to move entries across the wrap.
func TestLinkCacheMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 32, 100, 128, 129, 500} {
		legs := []struct {
			name string
			pool []PeerID
		}{
			{"mixed", mixedPool(capacity)},
			{"colliding", collidingAddrs(capacity, capacity+8, 1<<40)},
		}
		for _, leg := range legs {
			t.Run(fmt.Sprintf("cap=%d/%s", capacity, leg.name), func(t *testing.T) {
				script := phasedScript(simrng.New(uint64(capacity)), len(leg.pool), capacity)
				if peak := runScript(t, capacity, leg.pool, script); peak != capacity {
					t.Fatalf("script peaked at %d entries, never filling the cache", peak)
				}
			})
		}
	}
}

// FuzzLinkCache checks the cache against the model for fuzzed
// capacities (1 to 600) and op scripts; raw adds one arbitrary 64-bit
// address to the pool. The seeds include small caches over a 23-address
// space, mostly adds, removes and replacements.
func FuzzLinkCache(f *testing.F) {
	r := simrng.New(42)
	for capRaw := uint16(0); capRaw < 16; capRaw++ {
		script := make([]byte, 0, 4*64)
		for i := 0; i < 64; i++ {
			op := [4]byte{0, 1, 2, 5}[r.Intn(4)]
			script = append(script, op, 0, byte(r.Intn(23)), byte(r.Intn(256)))
		}
		f.Add(capRaw, int64(0), script)
	}
	f.Add(uint16(31), int64(1)<<40, randomScript(r, 600))
	f.Add(uint16(99), int64(-1), randomScript(r, 1200))
	f.Add(uint16(499), int64(1)<<62, randomScript(r, 3000))
	f.Add(uint16(599), int64(1)<<40+7, randomScript(r, 3000))
	f.Fuzz(func(t *testing.T, capRaw uint16, raw int64, script []byte) {
		capacity := int(capRaw)%600 + 1
		runScript(t, capacity, append(mixedPool(capacity), PeerID(raw)), script)
	})
}
