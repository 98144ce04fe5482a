package dist

import (
	"math"
	"sort"
	"testing"

	"repro/internal/simrng"
)

// checkRankAt fails t unless the guide-table rank at u equals the
// binary search over the CDF.
func checkRankAt(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	if u < 0 || u >= 1 {
		return
	}
	if got, want := z.rankOf(u), sort.SearchFloat64s(z.cum, u); got != want {
		t.Fatalf("n=%d s=%v u=%v (bits %#x): rank %d, binary search %d",
			z.N(), z.s, u, math.Float64bits(u), got, want)
	}
}

// checkRankNear checks u and its two float64 neighbours.
func checkRankNear(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	checkRankAt(t, z, math.Nextafter(u, math.Inf(-1)))
	checkRankAt(t, z, u)
	checkRankAt(t, z, math.Nextafter(u, math.Inf(1)))
}

// TestZipfRankMatchesBinarySearch pins the guide table to
// sort.SearchFloat64s on the values where an indexed search can go
// wrong: every CDF entry, every bucket edge b/n, their neighbours, both
// ends of [0, 1), and random draws. Large exponents give flat CDF tails
// where many ranks share one bucket; there a CDF entry deep in the
// bucket is a long scan, which makes the n=100003, s=3 case take
// seconds, so -short checks every 97th CDF entry at that size.
func TestZipfRankMatchesBinarySearch(t *testing.T) {
	r := simrng.New(42)
	for _, n := range []int{1, 2, 3, 7, 1000, 10000, 100003} {
		step := 1
		if testing.Short() && n > 10000 {
			step = 97
		}
		for _, s := range []float64{0, 0.8, 1.2, 3, 8} {
			z := MustZipf(n, s)
			checkRankAt(t, z, 0)
			checkRankAt(t, z, math.Nextafter(1, 0))
			for k := 0; k < n; k += step {
				checkRankNear(t, z, z.cum[k])
			}
			for b := 0; b <= n; b++ {
				checkRankNear(t, z, float64(b)/float64(n))
			}
			for i := 0; i < 20000; i++ {
				checkRankAt(t, z, r.Float64())
			}
		}
	}
}

// FuzzZipfRank checks the guide-table rank against the binary search
// for arbitrary sizes, exponents and every float64 in [0, 1).
func FuzzZipfRank(f *testing.F) {
	f.Add(uint32(10000), 0.8, uint64(0))
	f.Add(uint32(1), 0.0, math.Float64bits(0.5))
	f.Add(uint32(7), 8.0, math.Float64bits(math.Nextafter(1, 0)))
	f.Add(uint32(100003), 3.0, math.Float64bits(1.0/3))
	f.Fuzz(func(t *testing.T, n uint32, s float64, ubits uint64) {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			s = 1
		}
		z := MustZipf(int(n%100003)+1, math.Mod(math.Abs(s), 16))
		// Bit patterns below that of 1.0 are exactly the non-negative
		// float64s in [0, 1).
		u := math.Float64frombits(ubits % math.Float64bits(1))
		checkRankNear(t, z, u)
		k := z.rankOf(u)
		checkRankNear(t, z, z.cum[k])
		checkRankNear(t, z, float64(bucket(u, z.N()))/float64(z.N()))
	})
}

func BenchmarkZipfRank(b *testing.B) {
	z := MustZipf(10000, 0.8)
	r := simrng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = z.Rank(r)
	}
}
