package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"strings"
)

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, usedCPU                     float64 // CPU-seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: v(0), allocObjects: v(1), gcCycles: v(2),
		gcCPU: v(3), usedCPU: v(4) - v(5),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU, usedCPU: a.usedCPU - b.usedCPU,
	}
}

// cpuLayers are the buckets CPU-profile samples are charged to, in report
// order. Each hetis/internal package maps to the layer that owns it.
var cpuLayers = []string{"lp", "dispatch", "kvcache", "sim", "engine", "perf", "metrics", "trace", "workload", "fleet", "gc", "other"}

var packageLayer = map[string]string{
	"lp": "lp", "dispatch": "dispatch", "kvcache": "kvcache", "sim": "sim",
	"engine": "engine", "parallelizer": "engine", "profile": "engine", "model": "engine", "hardware": "engine",
	"perf": "perf", "metrics": "metrics", "trace": "trace", "workload": "workload",
	"fleet": "fleet", "scenario": "fleet", "sweep": "fleet",
}

// layerOfFrame classifies one stack frame's function name. ok is false for
// frames that do not decide the sample (the runtime, the standard library)
// so the walk continues towards the caller.
func layerOfFrame(fn string) (layer string, ok bool) {
	if rest, found := strings.CutPrefix(fn, "hetis/internal/"); found {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, known := packageLayer[pkg]; known {
			return l, true
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "main.") {
		return "other", true // the benchmark's own code
	}
	return "", false
}

// gcRoots are the runtime's background collector entry points: a stack
// with no hetis frame under one of them is collector work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// attributeStack charges a stack (leaf first) to a layer: the innermost
// hetis/internal frame decides, so runtime and standard-library frames go
// to their nearest hetis caller; stacks without one are GC workers or
// other.
func attributeStack(frames []string) string {
	for _, fn := range frames {
		if l, ok := layerOfFrame(fn); ok {
			return l
		}
	}
	for _, fn := range frames {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	return "other"
}

// attributeProfile decodes a gzipped runtime/pprof CPU profile and returns
// the sample count charged to each of cpuLayers.
func attributeProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for _, s := range p.samples {
		var frames []string
		for _, locID := range s.locations {
			for _, fnID := range p.locations[locID] {
				frames = append(frames, p.strings[p.functions[fnID]])
			}
		}
		if len(s.values) > 0 {
			out[attributeStack(frames)] += s.values[0]
		}
	}
	return out, nil
}

// The subset of profile.proto (github.com/google/pprof/proto/profile.proto)
// attribution needs: samples with their location IDs and counts, each
// location's function IDs (innermost inlined function first), and function
// names through the string table.
type pprofProfile struct {
	samples   []pprofSample
	locations map[uint64][]uint64 // location ID -> function IDs, leaf first
	functions map[uint64]int64    // function ID -> name string index
	strings   []string
}

type pprofSample struct {
	locations []uint64
	values    []int64
}

func parseProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // sample
			var s pprofSample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locations, v, m)
				case 2:
					var u []uint64
					if err := appendUints(&u, v, m); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(m, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d: name index %d outside the string table", id, name)
		}
	}
	for _, fns := range p.locations {
		for _, fn := range fns {
			if _, ok := p.functions[fn]; !ok {
				return nil, fmt.Errorf("location references unknown function %d", fn)
			}
		}
	}
	return p, nil
}

// appendUints appends a repeated varint field, packed (msg) or not (v).
func appendUints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errMalformed
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

var errMalformed = errors.New("malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's number
// and its varint value (wire type 0) or its bytes (wire type 2, never nil).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errMalformed
			}
			msg = b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("%w: wire type %d", errMalformed, wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}
