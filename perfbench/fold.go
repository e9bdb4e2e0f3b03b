package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// folder accumulates CPU profile samples by the layer they are charged to.
// A sample is charged to the innermost frame that belongs to the
// repository, so runtime work (map access, malloc, write barriers) counts
// toward the layer that asked for it. Samples without a repository frame
// (GC workers, the scheduler, HTTP plumbing outside any handler) are
// charged to runtime, and the benchmark's own frames to bench.
type folder struct {
	samples map[string]int64
}

// layerPackages are the repository packages reported as <pkg>.cpu_share;
// gangsched is the root package. A repository package missing from the
// list is charged to other, so the shares always sum to 100.
var layerPackages = []string{
	"acct", "cluster", "core", "disk", "expt", "gang", "gangsched", "mem",
	"metrics", "mpi", "obs", "proc", "queue", "runner", "serve", "sim",
	"store", "swap", "trace", "vm", "workload",
}

func newFolder() *folder { return &folder{samples: make(map[string]int64)} }

// add folds one gzipped pprof CPU profile.
func (f *folder) add(gz []byte) error {
	samples, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range samples {
		f.samples[layerOf(s.stack)] += s.count
	}
	return nil
}

// shares returns every layer's share of the folded samples in percent.
func (f *folder) shares() map[string]float64 {
	var total int64
	for _, n := range f.samples {
		total += n
	}
	out := make(map[string]float64)
	for _, pkg := range append(append([]string(nil), layerPackages...), "other", "runtime", "bench") {
		out[pkg+".cpu_share"] = 0
	}
	if total == 0 {
		return out
	}
	for layer, n := range f.samples {
		out[layer+".cpu_share"] = 100 * float64(n) / float64(total)
	}
	return out
}

// layerOf charges a stack, innermost frame first, to a layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if layer, ok := repoLayer(fn); ok {
			return layer
		}
	}
	return "runtime"
}

// repoLayer maps a function's symbol to its repository layer, if any.
func repoLayer(fn string) (string, bool) {
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	path := fn[:slash+1+dot]
	switch {
	case path == "main" || path == "repro/perfbench":
		return "bench", true
	case path == "repro":
		return "gangsched", true
	case strings.HasPrefix(path, "repro/internal/"):
		pkg, _, _ := strings.Cut(strings.TrimPrefix(path, "repro/internal/"), "/")
		for _, known := range layerPackages {
			if pkg == known {
				return pkg, true
			}
		}
		return "other", true
	case strings.HasPrefix(path, "repro/"):
		return "other", true
	}
	return "", false
}

// ---- minimal decoder for the pprof protobuf format ----

type profSample struct {
	stack []string // function names, innermost first
	count int64
}

// parseProfile decodes the parts of a gzipped profile.proto message the
// fold needs: samples, locations (with inlined lines), functions and the
// string table.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location → function IDs, innermost first
		funcNames = map[uint64]int64{}    // function → string index
		strs      []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(field int, v uint64, _ []byte) error {
						if field == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(field int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []profSample
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, profSample{stack: stack, count: s.values[0]})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, passing each field's number with
// its varint value (wire type 0) or its bytes (wire type 2). Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which arrives either as
// one varint (v) or packed into bytes (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
