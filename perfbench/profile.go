package main

// CPU-profile attribution without any profile library: the gzipped
// protobuf that runtime/pprof writes is decoded by a minimal reader of
// the few profile.proto fields attribution needs, and every sample is
// charged to one layer by the innermost-frame rule (layerOf).

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// module is the import-path root of the program under test; frames
// outside it (runtime, stdlib) are never a sample's owner.
const module = "repro"

// benchPkg is this benchmark's package as symbol names record it (a
// main package); its frames (the load generators, checks and tracing
// wrappers) are charged to "bench" so harness work is never mistaken
// for program work.
const benchPkg = "main"

// pkgLayers maps program packages to layer names. Package node is
// split by source file (nodeFileLayers).
var pkgLayers = map[string]string{
	module + "/internal/core":     "core",
	module + "/internal/eventq":   "eventq",
	module + "/internal/cache":    "cache",
	module + "/internal/policy":   "policy",
	module + "/internal/content":  "content",
	module + "/internal/dist":     "dist",
	module + "/internal/overlay":  "overlay",
	module + "/internal/simrng":   "simrng",
	module + "/internal/lifetime": "lifetime",
	module + "/internal/workload": "workload",
	module + "/internal/wire":     "wire",
	module + "/internal/frame":    "frame",
	module + "/internal/obs":      "obs",
	module + "/node/memnet":       "memnet",
	module + "/node/cluster":      "cluster",
}

var nodeFileLayers = map[string]string{
	"serve.go":     "node.serve",
	"client.go":    "node.client",
	"admission.go": "node.admission",
	"health.go":    "node.health",
}

// profileLayers lists every layer a sample can be charged to, in
// report order. "runtime" owns samples with no program frame; "other"
// owns program packages outside the named layers.
var profileLayers = []string{
	"core", "eventq", "cache", "policy", "content", "dist", "overlay", "simrng",
	"lifetime", "workload",
	"node.serve", "node.client", "node.admission", "node.health", "node.other",
	"wire", "memnet", "cluster", "frame", "obs",
	"runtime", "bench", "other",
}

// funcPackage returns the import path of a symbol name as pprof
// records it ("repro/internal/cache.(*LinkCache).find").
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain '/' and '.'
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerOf names the layer owning a frame, or "" for a frame outside
// the module (the caller keeps walking outward).
func layerOf(funcName, file string) string {
	pkg := funcPackage(funcName)
	if pkg == benchPkg {
		return "bench"
	}
	if pkg != module && !strings.HasPrefix(pkg, module+"/") {
		return ""
	}
	if pkg == module+"/node" {
		if l, ok := nodeFileLayers[path.Base(file)]; ok {
			return l
		}
		return "node.other"
	}
	if l, ok := pkgLayers[pkg]; ok {
		return l
	}
	return "other"
}

// Attribution is a profile split by layer.
type Attribution struct {
	// TotalNanos is the CPU time the profile covers (sum over samples).
	TotalNanos int64
	// Nanos holds each layer's self time; the values sum to TotalNanos.
	Nanos map[string]int64
}

// Frac returns a layer's share of the profile (0 for an empty one).
func (a Attribution) Frac(layer string) float64 {
	if a.TotalNanos == 0 {
		return 0
	}
	return float64(a.Nanos[layer]) / float64(a.TotalNanos)
}

// Attribute decodes a gzipped pprof CPU profile and charges each
// sample's CPU time to the innermost frame inside the module.
func Attribute(gz []byte) (Attribution, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return Attribution{}, err
	}
	out := Attribution{Nanos: make(map[string]int64)}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds is the last sample type
		out.TotalNanos += v
		owner := "runtime"
	walk:
		for _, locID := range s.locs { // leaf first
			for _, ln := range p.locs[locID] { // innermost inlined frame first
				fn := p.funcs[ln]
				if l := layerOf(p.str(fn.name), p.str(fn.file)); l != "" {
					owner = l
					break walk
				}
			}
		}
		out.Nanos[owner] += v
	}
	return out, nil
}

type protoFunc struct{ name, file int64 }

type protoSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []protoSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]protoFunc
	strs    []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbuf walks one protobuf message.
type pbuf struct {
	b []byte
}

func (d *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			return 0, errTruncated
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field's number, wire type, scalar value (wire
// type 0) and payload (wire type 2).
func (d *pbuf) next() (field int, wt int, v uint64, payload []byte, err error) {
	key, err := d.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = d.varint()
	case 1:
		if len(d.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		d.b = d.b[8:]
	case 2:
		var n uint64
		if n, err = d.varint(); err == nil {
			if uint64(len(d.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, d.b = d.b[:n], d.b[n:]
		}
	case 5:
		if len(d.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		d.b = d.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wt)
	}
	return field, wt, v, payload, err
}

// appendRepeated decodes a repeated varint field in either packed
// (wire type 2) or unpacked (wire type 0) form.
func appendRepeated(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	d := pbuf{payload}
	for len(d.b) > 0 {
		x, err := d.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]protoFunc)}
	d := pbuf{raw}
	for len(d.b) > 0 {
		field, wt, _, payload, err := d.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2:
			s, err := decodeSample(payload)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			id, fns, err := decodeLocation(payload)
			if err != nil {
				return nil, err
			}
			p.locs[id] = fns
		case 5:
			id, fn, err := decodeFunction(payload)
			if err != nil {
				return nil, err
			}
			p.funcs[id] = fn
		case 6:
			if wt != 2 {
				return nil, errors.New("profile: bad string table entry")
			}
			p.strs = append(p.strs, string(payload))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (protoSample, error) {
	var s protoSample
	var vals []uint64
	d := pbuf{b}
	for len(d.b) > 0 {
		field, wt, v, payload, err := d.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			if s.locs, err = appendRepeated(s.locs, wt, v, payload); err != nil {
				return s, err
			}
		case 2:
			if vals, err = appendRepeated(vals, wt, v, payload); err != nil {
				return s, err
			}
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, nil
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	d := pbuf{b}
	for len(d.b) > 0 {
		field, _, v, payload, err := d.next()
		if err != nil {
			return 0, nil, err
		}
		switch field {
		case 1:
			id = v
		case 4: // Line{function_id=1, line=2}
			ld := pbuf{payload}
			for len(ld.b) > 0 {
				f, _, lv, _, err := ld.next()
				if err != nil {
					return 0, nil, err
				}
				if f == 1 {
					fns = append(fns, lv)
				}
			}
		}
	}
	return id, fns, nil
}

func decodeFunction(b []byte) (uint64, protoFunc, error) {
	var id uint64
	var fn protoFunc
	d := pbuf{b}
	for len(d.b) > 0 {
		field, _, v, _, err := d.next()
		if err != nil {
			return 0, fn, err
		}
		switch field {
		case 1:
			id = v
		case 2:
			fn.name = int64(v)
		case 4:
			fn.file = int64(v)
		}
	}
	return id, fn, nil
}
