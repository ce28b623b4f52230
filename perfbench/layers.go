package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// layerGroups folds packages into the layer they are reported under.
// Any package missing here is its own layer, so adding or deleting a
// package never breaks attribution.
var layerGroups = map[string]string{
	"msg":        "noc",
	"chai":       "workload",
	"heterosync": "workload",
	"fleet":      "hscserve",
}

const (
	internalPrefix = "hscsim/internal/"
	// otherLayer collects samples with no hscsim/internal frame: GC
	// workers, the HTTP client, the benchmark's own code.
	otherLayer = "runtime.other"
)

// layerOf returns the layer of one function symbol, or "" when the
// symbol does not belong to an hscsim/internal package.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if g, ok := layerGroups[pkg]; ok {
		return g
	}
	return pkg
}

// attribute charges a stack (innermost frame first) to the layer of its
// innermost hscsim/internal frame. Runtime frames under a layer — a
// channel park under prog's rendezvous, malloc under the directory —
// therefore count to that layer.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return otherLayer
}

// cpuByLayer decodes a gzipped pprof CPU profile and sums its CPU
// nanoseconds per layer.
func cpuByLayer(profile []byte) (map[string]int64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		out[attribute(s.frames)] += s.ns
	}
	return out, nil
}

// allocsByLayer sums the heap profile's allocated-object counts per
// layer. It reflects allocations up to the last completed GC cycle, so
// callers run two collections before reading it.
func allocsByLayer() map[string]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[string]int64)
	var stack []string
	for i := range recs {
		stack = stack[:0]
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out[attribute(stack)] += recs[i].AllocObjects
	}
	return out
}

// stackSample is one CPU profile sample: function names innermost
// first, and the CPU time it stands for.
type stackSample struct {
	frames []string
	ns     int64
}

var errProfile = errors.New("malformed pprof profile")

// decodeProfile reads the subset of the pprof protobuf format that
// runtime/pprof writes for CPU profiles: samples, locations (with their
// inlined lines, innermost first), functions and the string table.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = make(map[uint64]uint64)   // function id → name string index
		locs    = make(map[uint64][]uint64) // location id → function ids, innermost first
	)
	err = fields(raw, func(num, typ int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num, typ int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, typ, v, b)
				case 2:
					s.vals, err = appendUints(s.vals, typ, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, typ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num, typ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errProfile
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		// A CPU profile's last value is CPU time in nanoseconds.
		out = append(out, stackSample{frames: frames, ns: int64(s.vals[len(s.vals)-1])})
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's
// number, wire type, and its varint/fixed value or length-delimited
// payload.
func fields(b []byte, fn func(num, typ int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(num, typ, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated varint field in either its packed or
// its one-value-per-field encoding.
func appendUints(dst []uint64, typ int, v uint64, payload []byte) ([]uint64, error) {
	if typ != 2 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return dst, errProfile
		}
		dst, payload = append(dst, x), payload[n:]
	}
	return dst, nil
}
