package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math/rand/v2"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/node"
	"repro/node/memnet"
)

// validResults is a Results that passes every sim-paper check.
func validResults() (core.Params, *core.Results) {
	p := core.DefaultParams()
	return p, &core.Results{
		Queries: 1000, Satisfied: 956, Unsatisfied: 44,
		ProbesTotal: 95000, GoodProbes: 60000, DeadProbes: 35000,
		Births: p.NetworkSize + 600, Deaths: 600,
	}
}

func TestCheckSimFiresOnBrokenInvariants(t *testing.T) {
	band := simWorkloads["sim-paper"].band
	p, r := validResults()
	if err := checkSim(p, r, band); err != nil {
		t.Fatalf("valid results rejected: %v", err)
	}
	breaks := map[string]func(r *core.Results){
		"satisfied+unsatisfied": func(r *core.Results) { r.Unsatisfied-- },
		"probe partition":       func(r *core.Results) { r.DeadProbes++ },
		"births vs deaths":      func(r *core.Results) { r.Deaths++ },
		"interrupted":           func(r *core.Results) { r.Interrupted = true },
		"no queries":            func(r *core.Results) { *r = core.Results{} },
		"satisfaction band": func(r *core.Results) {
			r.Satisfied, r.Unsatisfied = 999, 1
		},
		"probes/query band": func(r *core.Results) {
			r.ProbesTotal, r.GoodProbes, r.DeadProbes = 10000, 6000, 4000
		},
	}
	for name, brk := range breaks {
		p, r := validResults()
		brk(r)
		if err := checkSim(p, r, band); err == nil {
			t.Errorf("%s: broken results passed the check", name)
		}
	}
}

// testFleet is a fleet value with a catalogue and addresses but no
// running nodes, enough for checkHits.
func testFleet(n int) *fleet {
	f := &fleet{cat: makeCatalogue(n, rand.New(rand.NewPCG(7, 7))), slot: make(map[netip.AddrPort]int)}
	for i := 0; i < n; i++ {
		a := netip.AddrPortFrom(netip.MustParseAddr("10.99.0.1"), uint16(10000+i))
		f.addrs = append(f.addrs, a)
		f.slot[a] = i
	}
	return f
}

func TestCheckHitsRejectsWrongHits(t *testing.T) {
	f := testFleet(20)
	kw := f.cat.rareFor[0][0]
	holders := f.cat.holders[kw+".ogg"]
	if len(holders) != 2 {
		t.Fatalf("rare file held by %d of 20 nodes, want 1 in 10", len(holders))
	}
	holder := f.addrs[holders[0]]
	var notHolder netip.AddrPort
	for i, a := range f.addrs {
		if i != holders[0] && i != holders[1] {
			notHolder = a
			break
		}
	}
	good := []node.Hit{{From: holder, Name: kw + ".ogg"}}
	if err := f.checkHits(kw, good); err != nil {
		t.Fatalf("correct hit rejected: %v", err)
	}
	wrong := map[string][]node.Hit{
		"name without keyword":        {{From: holder, Name: f.cat.files[holders[0]][0]}},
		"sender never given the file": {{From: notHolder, Name: kw + ".ogg"}},
		"sender outside the fleet":    {{From: netip.MustParseAddrPort("192.0.2.1:1"), Name: kw + ".ogg"}},
	}
	for name, hits := range wrong {
		if err := f.checkHits(kw, hits); err == nil {
			t.Errorf("%s: wrong hit passed the check", name)
		}
	}
}

func TestCatalogueRareNeverHeldByQuerier(t *testing.T) {
	f := testFleet(50)
	for q, kws := range f.cat.rareFor {
		for _, kw := range kws {
			for _, h := range f.cat.holders[kw+".ogg"] {
				if h == q {
					t.Fatalf("slot %d may query %q, which it holds", q, kw)
				}
			}
		}
	}
}

func TestCheckConservationDetectsLostPacket(t *testing.T) {
	ok := memnet.Stats{Sent: 100, Duplicated: 2, Delivered: 90, Dropped: 5, Blocked: 4, QueueDrop: 3}
	if err := checkConservation(ok); err != nil {
		t.Fatalf("balanced stats rejected: %v", err)
	}
	lost := ok
	lost.Delivered--
	if err := checkConservation(lost); err == nil {
		t.Fatal("a lost packet passed the check")
	}
}

func TestWaitGoroutinesDetectsLeak(t *testing.T) {
	base := numGoroutinesSettled()
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-release
	}()
	if err := waitGoroutines(base, 50*time.Millisecond); err == nil {
		t.Error("a leaked goroutine passed the check")
	}
	close(release)
	<-done
	if err := waitGoroutines(base, time.Second); err != nil {
		t.Errorf("after the goroutine exited: %v", err)
	}
}

// numGoroutinesSettled lets goroutines from earlier tests finish.
func numGoroutinesSettled() int {
	time.Sleep(20 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestFleetShutdownChecks starts and stops a small live fleet and
// runs a few closed-loop queries: every check must hold.
func TestFleetShutdownChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a live fleet")
	}
	spec := liveQuerySpec
	spec.nodes = 12
	f, _, err := startFleet(spec, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	log := closedLoop(f, 3, 200*time.Millisecond)
	for _, err := range f.shutdown() {
		t.Error(err)
	}
	if log.attempted == 0 || log.ok != log.attempted || len(log.wrong) > 0 {
		t.Errorf("queries: %d attempted, %d ok, wrong hits %v", log.attempted, log.ok, log.wrong)
	}
}

// Protobuf encoding helpers for the fixed profile.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, p []byte) []byte {
	b = pbVarint(b, uint64(field)<<3|2)
	return append(pbVarint(b, uint64(len(p))), p...)
}

// fixedProfile builds a gzipped CPU profile. funcs are (name, file)
// pairs with ids 1..n; locs lists each location's function ids,
// innermost first (ids 1..n); samples are (locations leaf first, ns).
func fixedProfile(t *testing.T, funcs [][2]string, locs [][]uint64, samples []struct {
	locs []uint64
	ns   int64
}) []byte {
	t.Helper()
	strs := []string{""}
	idx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var msg []byte
	for _, s := range samples {
		var sm, packed []byte
		for _, l := range s.locs {
			packed = pbVarint(packed, l)
		}
		sm = pbBytes(sm, 1, packed)
		sm = pbInt(sm, 2, 1)            // samples count, unpacked
		sm = pbInt(sm, 2, uint64(s.ns)) // cpu nanoseconds, unpacked
		msg = pbBytes(msg, 2, sm)
	}
	for i, fns := range locs {
		var lm []byte
		lm = pbInt(lm, 1, uint64(i+1))
		for _, fn := range fns {
			var line []byte
			line = pbInt(line, 1, fn)
			line = pbInt(line, 2, 10)
			lm = pbBytes(lm, 4, line)
		}
		msg = pbBytes(msg, 4, lm)
	}
	for i, fn := range funcs {
		var fm []byte
		fm = pbInt(fm, 1, uint64(i+1))
		fm = pbInt(fm, 2, idx(fn[0]))
		fm = pbInt(fm, 4, idx(fn[1]))
		msg = pbBytes(msg, 5, fm)
	}
	for _, s := range strs {
		msg = pbBytes(msg, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeFixedProfile(t *testing.T) {
	funcs := [][2]string{
		{"runtime.mallocgc", "/go/src/runtime/malloc.go"},                          // 1
		{"repro/internal/cache.(*LinkCache).find", "/src/internal/cache/cache.go"}, // 2
		{"repro/internal/core.(*Engine).Run", "/src/internal/core/engine.go"},      // 3
		{"repro/node.(*Node).admit", "/src/node/admission.go"},                     // 4
		{"repro/node.(*Node).handleQuery", "/src/node/serve.go"},                   // 5
		{"repro/node.(*Node).Close", "/src/node/node.go"},                          // 6
		{"main.(*tracedConn).WriteTo", "/src/perfbench/livetrace.go"},              // 7
		{"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"},                       // 8
		{"repro/internal/gossip.F[repro/x.T]", "/src/internal/gossip/g.go"},        // 9
		{"repro/node/memnet.(*Network).deliver", "/src/node/memnet/memnet.go"},     // 10
	}
	locs := [][]uint64{
		{1},    // 1: runtime leaf
		{2, 3}, // 2: cache.find inlined into core.Run
		{3},    // 3
		{4},    // 4
		{5},    // 5
		{6},    // 6
		{7},    // 7
		{8},    // 8
		{9},    // 9
		{10},   // 10
	}
	samples := []struct {
		locs []uint64
		ns   int64
	}{
		{[]uint64{1, 2}, 30},       // malloc under inlined cache.find -> cache
		{[]uint64{3}, 20},          // core
		{[]uint64{1, 4, 5}, 10},    // admission.go beats serve.go (innermost)
		{[]uint64{5}, 7},           // node.serve
		{[]uint64{6}, 3},           // node.go -> node.other
		{[]uint64{1, 10, 7, 5}, 5}, // memnet under the wrapper under serve
		{[]uint64{1, 7, 5}, 4},     // wrapper's own work -> bench
		{[]uint64{8}, 9},           // no program frame -> runtime
		{[]uint64{9}, 2},           // unnamed program package -> other
	}
	att, err := Attribute(fixedProfile(t, funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"cache": 30, "core": 20, "node.admission": 10, "node.serve": 7, "node.other": 3,
		"memnet": 5, "bench": 4, "runtime": 9, "other": 2,
	}
	var sum int64
	for _, l := range profileLayers {
		if att.Nanos[l] != want[l] {
			t.Errorf("%s: %d ns, want %d", l, att.Nanos[l], want[l])
		}
		sum += att.Nanos[l]
	}
	if att.TotalNanos != 90 || sum != att.TotalNanos {
		t.Errorf("layers sum to %d of total %d, want 90 of 90", sum, att.TotalNanos)
	}
	for l := range att.Nanos {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected layer %q", l)
		}
	}
}

func TestAttributeRejectsCorruptProfile(t *testing.T) {
	if _, err := Attribute([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

// TestBenchmarkJSONMatchesMetricMap keeps BENCHMARK.json and the
// metric map in metrics.go equal.
func TestBenchmarkJSONMatchesMetricMap(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	// The benchmark gates a subset of the runnable workloads.
	for _, bw := range b.Workloads {
		found := false
		for _, w := range workloads {
			found = found || w.name == bw.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %q is not runnable", bw.Name)
		}
	}
	compare := func(kind string, got, want []metricDef, withBound bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (withBound && g.Bound != w.Bound) {
				t.Errorf("%s[%d]: %+v, want %s %s %s %v", kind, i, g, w.Name, w.Unit, w.Better, w.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}
