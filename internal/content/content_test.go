package content

import (
	"math"
	"slices"
	"testing"

	"repro/internal/simrng"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"defaults", func(*Params) {}, true},
		{"zero items", func(p *Params) { p.NumItems = 0 }, false},
		{"negative pop exp", func(p *Params) { p.PopularityExp = -1 }, false},
		{"negative query exp", func(p *Params) { p.QueryExp = -1 }, false},
		{"bad nonexistent fraction", func(p *Params) { p.NonexistentQueryFraction = 1 }, false},
		{"bad free rider", func(p *Params) { p.FreeRiderFraction = -0.1 }, false},
		{"negative sigma", func(p *Params) { p.LibrarySigma = -1 }, false},
		{"negative max library", func(p *Params) { p.MaxLibrary = -1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			_, err := New(p)
			if (err == nil) != tt.ok {
				t.Fatalf("New() error = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestFreeRiderFraction(t *testing.T) {
	p := DefaultParams()
	p.FreeRiderFraction = 0.25
	u := MustNew(p)
	r := simrng.New(1)
	const n = 20000
	zero := 0
	for i := 0; i < n; i++ {
		if u.SampleLibrarySize(r) == 0 {
			zero++
		}
	}
	if f := float64(zero) / n; math.Abs(f-0.25) > 0.02 {
		t.Fatalf("free-rider fraction %v, want ~0.25", f)
	}
}

func TestLibrarySizeBounds(t *testing.T) {
	p := DefaultParams()
	p.MaxLibrary = 50
	u := MustNew(p)
	r := simrng.New(2)
	for i := 0; i < 5000; i++ {
		s := u.SampleLibrarySize(r)
		if s < 0 || s > 50 {
			t.Fatalf("library size %d outside [0,50]", s)
		}
	}
}

func TestNewLibraryExactSize(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(3)
	for _, size := range []int{0, 1, 10, 500} {
		lib := u.NewLibrary(r, size)
		if lib.Size() != size {
			t.Fatalf("NewLibrary(%d).Size() = %d", size, lib.Size())
		}
	}
}

func TestNewLibraryDistinctValidItems(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(4)
	lib := u.NewLibrary(r, 300)
	seen := make(map[ItemID]bool)
	for _, id := range lib.Items() {
		if id < 0 || int(id) >= u.NumItems() {
			t.Fatalf("item %d outside universe", id)
		}
		if seen[id] {
			t.Fatalf("duplicate item %d", id)
		}
		seen[id] = true
	}
}

func TestPopularItemsMoreReplicated(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(5)
	const peers = 2000
	popularOwned, tailOwned := 0, 0
	tail := ItemID(u.NumItems() - 1)
	for i := 0; i < peers; i++ {
		lib := u.NewLibrary(r, 100)
		if lib.Contains(0) {
			popularOwned++
		}
		if lib.Contains(tail) {
			tailOwned++
		}
	}
	if popularOwned <= tailOwned*5 {
		t.Fatalf("replication not skewed: item0 on %d peers, tail item on %d", popularOwned, tailOwned)
	}
}

func TestDrawQueryNonexistentFraction(t *testing.T) {
	p := DefaultParams()
	p.NonexistentQueryFraction = 0.1
	u := MustNew(p)
	r := simrng.New(6)
	const n = 50000
	none := 0
	for i := 0; i < n; i++ {
		q := u.DrawQuery(r)
		if q == NoItem {
			none++
		} else if q < 0 || int(q) >= u.NumItems() {
			t.Fatalf("query item %d outside universe", q)
		}
	}
	if f := float64(none) / n; math.Abs(f-0.1) > 0.01 {
		t.Fatalf("nonexistent query fraction %v, want ~0.1", f)
	}
}

func TestLibraryZeroValue(t *testing.T) {
	var lib Library
	if lib.Size() != 0 {
		t.Fatal("zero library has nonzero size")
	}
	if lib.Contains(0) || lib.Contains(NoItem) {
		t.Fatal("zero library claims to contain items")
	}
	if lib.Results(3) != 0 {
		t.Fatal("zero library returned results")
	}
}

func TestResults(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(7)
	lib := u.NewLibrary(r, 50)
	items := lib.Items()
	if lib.Results(items[0]) != 1 {
		t.Fatal("owned item returned no result")
	}
	if lib.Results(NoItem) != 0 {
		t.Fatal("NoItem matched")
	}
}

// TestMatchProbabilityGrowsWithLibrary verifies the core property the
// MFS policy exploits: peers with more files answer more queries.
func TestMatchProbabilityGrowsWithLibrary(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(8)
	match := func(libSize, trials int) float64 {
		hits := 0
		lib := u.NewLibrary(r, libSize)
		for i := 0; i < trials; i++ {
			if lib.Contains(u.DrawQuery(r)) {
				hits++
			}
		}
		return float64(hits) / float64(trials)
	}
	small := match(10, 20000)
	large := match(1000, 20000)
	if large <= small*3 {
		t.Fatalf("match probability not increasing with library size: small=%v large=%v", small, large)
	}
}

// TestUnsatisfiableFloor: with the default calibration, a noticeable
// fraction of queries cannot be answered even by the union of many
// libraries (the paper's ~6% floor at NetworkSize 1000).
func TestUnsatisfiableFloor(t *testing.T) {
	u := MustNew(DefaultParams())
	r := simrng.New(9)
	// Union of 1000 typical libraries.
	libs := make([]Library, 1000)
	for i := range libs {
		libs[i] = u.NewLibrary(r, u.SampleLibrarySize(r))
	}
	const queries = 5000
	unsat := 0
	for i := 0; i < queries; i++ {
		q := u.DrawQuery(r)
		found := false
		for _, lib := range libs {
			if lib.Contains(q) {
				found = true
				break
			}
		}
		if !found {
			unsat++
		}
	}
	f := float64(unsat) / queries
	if f < 0.02 || f > 0.15 {
		t.Fatalf("unsatisfiable floor %v, want ~0.03-0.10", f)
	}
}

// newLibraryMapRef is the map-based library sampler the sorted-slice
// Library replaced, kept as the reference for its item set and its
// draws from r.
func newLibraryMapRef(u *Universe, r *simrng.RNG, size int) map[ItemID]struct{} {
	items := make(map[ItemID]struct{})
	if size <= 0 {
		return items
	}
	if size > u.maxLib {
		size = u.maxLib
	}
	budget := 10 * size
	for len(items) < size && budget > 0 {
		budget--
		items[ItemID(u.itemPop.Rank(r))] = struct{}{}
	}
	for len(items) < size {
		items[ItemID(r.Intn(u.params.NumItems))] = struct{}{}
	}
	return items
}

// TestLibraryMatchesMapReference checks NewLibraryInto, fresh and
// recycled, against the map reference: the same item set, the RNG left
// at the same position, ascending Items, and Contains/Results agreeing
// with the set on every item id and NoItem.
func TestLibraryMatchesMapReference(t *testing.T) {
	exhaust := DefaultParams()
	exhaust.NumItems = 50
	exhaust.PopularityExp = 3 // 400 draws cannot find 40 distinct items
	exhaust.MaxLibrary = 50
	def := DefaultParams()
	maxLib := MustNew(def).MaxLibrary()
	tests := []struct {
		name    string
		params  Params
		size    int
		recycle int // size of the recycled library; -1 for Library{}
	}{
		{"size0", def, 0, -1},
		{"size0 recycled", def, 0, 150},
		{"size1", def, 1, -1},
		{"size150", def, 150, -1},
		{"max", def, maxLib, -1},
		{"above max", def, maxLib + 7, -1},
		{"budget exhausted", exhaust, 40, -1},
		{"budget exhausted recycled", exhaust, 40, 10},
		{"recycled larger", def, 150, maxLib},
		{"recycled smaller", def, 150, 1},
		{"recycled max", def, maxLib, 150},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			u := MustNew(tt.params)
			var recycle Library
			if tt.recycle >= 0 {
				recycle = u.NewLibrary(simrng.New(99), tt.recycle)
			}
			for seed := uint64(1); seed <= 20; seed++ {
				rGot, rWant := simrng.New(seed), simrng.New(seed)
				lib := u.NewLibraryInto(rGot, tt.size, recycle)
				want := newLibraryMapRef(u, rWant, tt.size)
				if got, want := rGot.Uint64(), rWant.Uint64(); got != want {
					t.Fatalf("seed %d: RNG position differs from the reference", seed)
				}
				if lib.Size() != len(want) {
					t.Fatalf("seed %d: Size %d, reference %d", seed, lib.Size(), len(want))
				}
				items := lib.Items()
				if !slices.IsSorted(items) || len(slices.Compact(slices.Clone(items))) != len(items) {
					t.Fatalf("seed %d: Items not strictly ascending: %v", seed, items)
				}
				for id := NoItem; int(id) < u.NumItems(); id++ {
					_, in := want[id]
					if lib.Contains(id) != in {
						t.Fatalf("seed %d: Contains(%d) = %v, reference %v", seed, id, !in, in)
					}
					if res := lib.Results(id); (res == 1) != in || res > 1 {
						t.Fatalf("seed %d: Results(%d) = %d, reference holds it: %v", seed, id, res, in)
					}
				}
				if lib.Size() > 0 {
					recycle = lib // the next seed rebuilds over this one
				}
			}
		})
	}
}

func BenchmarkNewLibrary(b *testing.B) {
	u := MustNew(DefaultParams())
	r := simrng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.NewLibrary(r, 150)
	}
}

func BenchmarkDrawQuery(b *testing.B) {
	u := MustNew(DefaultParams())
	r := simrng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.DrawQuery(r)
	}
}

func BenchmarkNewLibraryInto(b *testing.B) {
	u := MustNew(DefaultParams())
	r := simrng.New(1)
	lib := u.NewLibrary(r, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lib = u.NewLibraryInto(r, 150, lib)
	}
}

// containsSink keeps BenchmarkLibraryContains's calls from being
// optimized away.
var containsSink bool

func BenchmarkLibraryContains(b *testing.B) {
	u := MustNew(DefaultParams())
	r := simrng.New(1)
	lib := u.NewLibrary(r, 250)
	queries := make([]ItemID, 1024)
	for i := range queries {
		queries[i] = u.DrawQuery(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		containsSink = lib.Contains(queries[i%len(queries)])
	}
}
