package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// frame is one function on a sampled stack.
type frame struct {
	fn   string // fully qualified Go function name
	file string
}

// cpuSample is one stack of a CPU profile, innermost frame first, with the
// CPU time it stands for.
type cpuSample struct {
	nanos  int64
	frames []frame
}

// repoPrefix is the import-path prefix of the simulator's modules.
const repoPrefix = "mafic/internal/"

// gcLayer takes the samples with no frame of the repository or the
// benchmark on their stack: GC workers, the Go scheduler, idle spinning.
const gcLayer = "gc"

// benchLayer takes the benchmark's own frames (package main).
const benchLayer = "bench"

// layerOf names the layer a frame belongs to, or "" for runtime and
// standard-library frames. A simulator frame belongs to its module, except
// that a module's checkpoint.go — its snapshot capture and restore hooks,
// which only the checkpoint layer calls — belongs to checkpoint.
func layerOf(f frame) string {
	if strings.HasPrefix(f.fn, "main.") {
		return benchLayer
	}
	rest, ok := strings.CutPrefix(f.fn, repoPrefix)
	if !ok {
		return ""
	}
	if path.Base(f.file) == "checkpoint.go" {
		return "checkpoint"
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute charges each sample to the layer of its innermost repository
// frame, so runtime and standard-library work (allocation, memclr, map
// access) counts against the module that asked for it. Samples with no such
// frame go to gcLayer. The returned seconds per layer sum to total.
func attribute(samples []cpuSample) (byLayer map[string]float64, total float64) {
	byLayer = make(map[string]float64)
	var nanos int64
	for _, s := range samples {
		layer := gcLayer
		for _, f := range s.frames {
			if l := layerOf(f); l != "" {
				layer = l
				break
			}
		}
		byLayer[layer] += float64(s.nanos) / 1e9
		nanos += s.nanos
	}
	return byLayer, float64(nanos) / 1e9
}

// cumulative returns the CPU seconds of samples that have fn anywhere on
// their stack, each sample counted once.
func cumulative(samples []cpuSample, fn string) float64 {
	var nanos int64
	for _, s := range samples {
		for _, f := range s.frames {
			if f.fn == fn {
				nanos += s.nanos
				break
			}
		}
	}
	return float64(nanos) / 1e9
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes into stacks of CPU nanoseconds. Only the fields attribution needs
// are read; the format is documented in the pprof repository's
// proto/profile.proto.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type line struct{ function uint64 }
	type rawSample struct {
		locations []uint64
		values    []int64
	}
	type function struct{ name, file int64 }
	var (
		sampleTypes []int64 // string-table index of each value's type
		samples     []rawSample
		locations   = map[uint64][]line{}
		functions   = map[uint64]function{}
		strs        []string
	)
	err = forEachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType
			var typ int64
			if err := forEachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, typ)
		case 2: // sample
			var s rawSample
			if err := forEachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, pb, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return appendVarints(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var lines []line
			if err := forEachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l line
					if err := forEachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							l.function = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, l)
				}
				return nil
			}); err != nil {
				return err
			}
			locations[id] = lines
		case 5: // function
			var id uint64
			var f function
			if err := forEachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			functions[id] = f
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{nanos: s.values[cpu]}
		// Locations run leaf first; within one location the lines run from
		// the innermost inlined function out to the function it was
		// inlined into.
		for _, id := range s.locations {
			for _, l := range locations[id] {
				f := functions[l.function]
				cs.frames = append(cs.frames, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// forEachField walks the fields of one protobuf message. Varint fields
// arrive as v, length-delimited fields as b; fixed-width fields are skipped.
func forEachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field, which may be packed (one
// length-delimited run) or not (one varint per field).
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
