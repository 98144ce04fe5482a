package eventq

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Fatalf("zero-value queue has Len %d", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
}

func TestOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(3.0, "c")
	q.Push(1.0, "a")
	q.Push(2.0, "b")

	want := []struct {
		t float64
		v string
	}{{1, "a"}, {2, "b"}, {3, "c"}}
	for _, w := range want {
		tm, v, ok := q.Pop()
		if !ok || tm != w.t || v != w.v {
			t.Fatalf("Pop() = (%v, %q, %v), want (%v, %q, true)", tm, v, ok, w.t, w.v)
		}
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(5.0, i)
	}
	for i := 0; i < 100; i++ {
		_, v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("equal-time events out of order: got %d at position %d", v, i)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue[int]
	q.Push(1, 10)
	if _, v, _ := q.Peek(); v != 10 {
		t.Fatalf("Peek = %d, want 10", v)
	}
	if q.Len() != 1 {
		t.Fatalf("Peek removed the event")
	}
}

// TestClear checks that Reset, which also serves as the queue's clear
// operation, drops every pending event and leaves the queue usable.
func TestClear(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(float64(i), i)
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Reset left %d events", q.Len())
	}
	q.Push(1, 99)
	if _, v, _ := q.Pop(); v != 99 {
		t.Fatal("queue unusable after Reset")
	}
}

// TestResetBehavesLikeFresh pins the recycling contract: after Reset,
// a reused queue must order same-time events exactly like a freshly
// constructed one (sequence counter rewound, no stale events).
func TestResetBehavesLikeFresh(t *testing.T) {
	script := func(q *Queue[int]) []int {
		for i := 0; i < 100; i++ {
			q.Push(float64(i%7), i)
		}
		var out []int
		for {
			_, v, ok := q.Pop()
			if !ok {
				break
			}
			out = append(out, v)
		}
		return out
	}

	var q Queue[int]
	fresh := script(&q)
	q.Push(99, -1) // leftover that Reset must drop
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Reset left %d events", q.Len())
	}
	if got := script(&q); !slices.Equal(got, fresh) {
		t.Fatalf("Queue after Reset diverged:\n got %v\nwant %v", got, fresh)
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue[float64]
	rng := rand.New(rand.NewSource(1))
	last := -1.0
	pending := 0
	for i := 0; i < 10000; i++ {
		if pending == 0 || rng.Float64() < 0.6 {
			// Pushes must not be scheduled before the current frontier,
			// mirroring how a simulator never schedules in the past.
			tm := last + rng.Float64()*10
			q.Push(tm, tm)
			pending++
			continue
		}
		tm, v, ok := q.Pop()
		if !ok {
			t.Fatal("Pop failed with pending events")
		}
		if tm != v {
			t.Fatalf("payload mismatch: %v != %v", tm, v)
		}
		if tm < last {
			t.Fatalf("time went backwards: %v after %v", tm, last)
		}
		last = tm
		pending--
	}
}

// TestDequeueOrderMatchesSort is the core heap property: popping all
// events yields them sorted by time (stably for equal times).
func TestDequeueOrderMatchesSort(t *testing.T) {
	f := func(raw []uint16) bool {
		times := make([]float64, len(raw))
		for i, r := range raw {
			times[i] = float64(r % 50) // force many ties
		}
		var q Queue[int]
		for i, tm := range times {
			q.Push(tm, i)
		}
		type ev struct {
			t float64
			i int
		}
		want := make([]ev, len(times))
		for i, tm := range times {
			want[i] = ev{tm, i}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].t < want[b].t })
		for _, w := range want {
			tm, v, ok := q.Pop()
			if !ok || tm != w.t || v != w.i {
				return false
			}
		}
		_, _, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue[int]
	rng := rand.New(rand.NewSource(1))
	times := make([]float64, 1024)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(times[i%len(times)], i)
		if q.Len() > 512 {
			q.Pop()
		}
	}
}
