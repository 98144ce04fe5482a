package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans caps the spans a traced run keeps in memory; aggregates
// are computed over every event, the span file holds the first ones.
const maxSpans = 200_000

// Span is one timed step of a traced run. Spans of one query share a
// Trace id; Parent is 0 for a root.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced interval began
	End    int64  `json:"end_ns"`
	// N carries a count for spans that summarize work (queries in an
	// engine run, results in a query).
	N int `json:"n,omitempty"`
}

// traceSession owns everything a traced run adds to an untraced one:
// the CPU profile, runtime counter deltas, heap polling and the span
// store.
type traceSession struct {
	cfg     runConfig
	t0      time.Time
	prof    bytes.Buffer
	rt0     []metrics.Sample
	stop    chan struct{}
	done    chan struct{}
	heapMax atomic.Uint64

	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []Span
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// startTrace begins profiling and heap polling.
func startTrace(cfg runConfig) (*traceSession, error) {
	t := &traceSession{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t.rt0 = readRuntime()
	t.t0 = time.Now()
	go t.pollHeap()
	return t, nil
}

func (t *traceSession) pollHeap() {
	defer close(t.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > t.heapMax.Load() {
			t.heapMax.Store(v)
		}
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
	}
}

// since is the offset of now into the traced interval.
func (t *traceSession) since(now time.Time) int64 { return int64(now.Sub(t.t0)) }

// newID returns a fresh span id.
func (t *traceSession) newID() uint64 { return t.nextID.Add(1) }

// record keeps a span, up to maxSpans.
func (t *traceSession) record(s Span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// span records a root span that ended now and lasted d.
func (t *traceSession) span(name string, n int, d time.Duration) {
	id := t.newID()
	end := t.since(time.Now())
	t.record(Span{ID: id, Trace: id, Name: name, Start: end - int64(d), End: end, N: n})
}

// abort stops profiling without reporting.
func (t *traceSession) abort() {
	pprof.StopCPUProfile()
	close(t.stop)
	<-t.done
}

// finish stops profiling, attributes the profile to layers and fills
// the profile and runtime metrics of m; queries normalizes per-query
// values. The span file is written last.
func (t *traceSession) finish(m map[string]float64, queries float64) (Attribution, error) {
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	close(t.stop)
	<-t.done
	att, err := Attribute(t.prof.Bytes())
	if err != nil {
		return att, err
	}
	for _, l := range profileLayers {
		m[l+".self_frac"] = att.Frac(l)
	}
	mallocs := rtFloat(rt1[0]) - rtFloat(t.rt0[0])
	m["runtime.mallocs"] = mallocs
	m["runtime.alloc_mb"] = (rtFloat(rt1[1]) - rtFloat(t.rt0[1])) / (1 << 20)
	if total := rtFloat(rt1[3]) - rtFloat(t.rt0[3]); total > 0 {
		m["runtime.gc_cpu_frac"] = (rtFloat(rt1[2]) - rtFloat(t.rt0[2])) / total
	}
	m["runtime.heap_peak_mb"] = float64(t.heapMax.Load()) / (1 << 20)
	if queries > 0 {
		m["runtime.mallocs_per_query"] = mallocs / queries
	}
	return att, t.writeSpans()
}

// writeSpans writes the kept spans as JSON lines to the trace
// directory, one file per workload and seed.
func (t *traceSession) writeSpans() error {
	if t.cfg.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(t.cfg.traceDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	name := filepath.Join(t.cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", t.cfg.workload, t.cfg.seed))
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
