package eventq

import "testing"

// BenchmarkPushPopSteady measures the steady-state cost of the
// simulator's event scheduling: a warm queue holding churn/ping/probe
// events while pushes and pops interleave. After warmup the heap's
// backing array is at capacity, so the loop should be allocation-free.
func BenchmarkPushPopSteady(b *testing.B) {
	var q Queue[int]
	const depth = 1 << 12
	for i := 0; i < depth; i++ {
		q.Push(float64(i%977), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, v, ok := q.Pop()
		if !ok {
			b.Fatal("queue drained")
		}
		q.Push(t+float64(v%31)+1, v)
	}
}

// BenchmarkQueueReset measures recycling a queue across simulated
// runs: fill, drain, Reset, repeat. After the first iteration the
// backing array is at its high-water mark, so the steady state must be
// allocation-free — this is the contract that lets engines reuse one
// queue across runs instead of reallocating it.
func BenchmarkQueueReset(b *testing.B) {
	var q Queue[int]
	const batch = 1024
	fill := func() {
		for j := 0; j < batch; j++ {
			q.Push(float64((j*2654435761)%4093), j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	fill() // reach the high-water mark before measuring
	q.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		q.Reset()
	}
}

// BenchmarkPushDrain measures bulk scheduling followed by a full drain
// (the shape of engine startup and shutdown).
func BenchmarkPushDrain(b *testing.B) {
	var q Queue[int]
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			q.Push(float64((j*2654435761)%4093), j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}
