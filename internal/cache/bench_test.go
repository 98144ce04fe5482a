package cache

import (
	"fmt"
	"testing"
)

// benchCapacities are the link-cache sizes the repository runs: 32 in
// the sim-churn benchmark workload and BenchmarkLargeRun, 100 as the
// paper's default, and 500 as Table 3's largest point.
var benchCapacities = []int{32, 100, 500}

// fullCache returns a capacity-sized cache filled with addresses
// 0..capacity-1.
func fullCache(capacity int) *LinkCache {
	c := NewLinkCache(capacity)
	for i := 0; i < capacity; i++ {
		c.Add(Entry{Addr: PeerID(i)})
	}
	return c
}

// BenchmarkAddRemoveCycle measures the link-cache mutation mix the
// engine performs per probe: membership check, add (with eviction
// pressure), touch, and remove. Steady state should not allocate.
func BenchmarkAddRemoveCycle(b *testing.B) {
	for _, capacity := range benchCapacities {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			c := fullCache(capacity)
			space := 32 * capacity
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := PeerID(i % space)
				if !c.Has(addr) && !c.Full() {
					c.Add(Entry{Addr: addr})
				}
				c.Touch(addr, float64(i))
				if i%3 == 0 {
					c.Remove(PeerID((i * 7) % space))
				}
				if c.Len() < capacity*3/4 {
					c.Add(Entry{Addr: PeerID(i%space + space)})
				}
			}
		})
	}
}

// BenchmarkReplaceAt measures the eviction write path on a full cache.
func BenchmarkReplaceAt(b *testing.B) {
	for _, capacity := range benchCapacities {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			c := fullCache(capacity)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ReplaceAt(i%capacity, Entry{Addr: PeerID(10000 + i)})
			}
		})
	}
}
