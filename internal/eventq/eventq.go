// Package eventq implements the event queue at the heart of the
// discrete-event simulator: a binary min-heap keyed by virtual time
// with deterministic FIFO ordering among events scheduled for the same
// instant.
//
// Determinism matters: the simulator must produce bit-identical results
// for a given seed, so ties cannot be broken by map iteration order or
// pointer values. Every pushed event receives a monotonically
// increasing sequence number used as the tie-breaker.
//
// Queue is the one event queue in the repository: internal/core,
// internal/gossip and internal/dht each hold a Queue by value and pop
// it serially. A run is single-threaded; parallelism belongs across
// runs.
package eventq

// Queue is a time-ordered event queue. The zero value is an empty queue
// ready for use. T is the event payload type.
//
// Queue is not safe for concurrent use.
type Queue[T any] struct {
	heap []entry[T]
	seq  uint64
}

type entry[T any] struct {
	time float64
	seq  uint64
	v    T
}

// Len reports the number of pending events.
func (q *Queue[T]) Len() int { return len(q.heap) }

// Push schedules v at the given virtual time. Events pushed with equal
// times are dequeued in push order.
func (q *Queue[T]) Push(time float64, v T) {
	q.seq++
	q.heap = append(q.heap, entry[T]{time: time, seq: q.seq, v: v})
	q.up(len(q.heap) - 1)
}

// Pop removes and returns the earliest event. ok is false when the
// queue is empty.
func (q *Queue[T]) Pop() (time float64, v T, ok bool) {
	if len(q.heap) == 0 {
		var zero T
		return 0, zero, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	var zero entry[T]
	q.heap[last] = zero // release payload for GC
	q.heap = q.heap[:last]
	if len(q.heap) > 0 {
		q.down(0)
	}
	return top.time, top.v, true
}

// Peek returns the earliest event without removing it. ok is false when
// the queue is empty.
func (q *Queue[T]) Peek() (time float64, v T, ok bool) {
	if len(q.heap) == 0 {
		var zero T
		return 0, zero, false
	}
	return q.heap[0].time, q.heap[0].v, true
}

// Reset returns the queue to its freshly-constructed state while
// keeping allocated capacity: all pending events are dropped and the
// sequence counter rewinds to zero, so a recycled queue orders
// same-time events exactly like a brand-new one. Engines that are
// reused across runs call Reset instead of allocating a new queue;
// BenchmarkQueueReset pins the zero-allocation guarantee.
func (q *Queue[T]) Reset() {
	clear(q.heap) // release payloads for GC
	q.heap = q.heap[:0]
	q.seq = 0
}

// less orders by (time, seq).
func (q *Queue[T]) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
