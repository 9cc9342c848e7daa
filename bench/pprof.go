package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile written by runtime/pprof is a gzipped protobuf
// (profile.proto). The standard library writes it but has no reader,
// so this file decodes the four tables the folding needs — samples,
// locations, functions, strings — and nothing else.

// pbField is one decoded protobuf field: a varint (or fixed-width
// number) in num, or a length-delimited payload in data.
type pbField struct {
	tag  int
	num  uint64
	data []byte
}

var errProto = errors.New("malformed profile protobuf")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		f := pbField{tag: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.num, rest, err = pbVarint(rest); err != nil {
				return nil, err
			}
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if len(rest) < n {
				return nil, errProto
			}
			for i := 0; i < n; i++ {
				f.num |= uint64(rest[i]) << (8 * i)
			}
			rest = rest[n:]
		case 2:
			var n uint64
			if n, rest, err = pbVarint(rest); err != nil || n > uint64(len(rest)) {
				return nil, errProto
			}
			f.data, rest = rest[:n], rest[n:]
		default:
			return nil, errProto
		}
		out = append(out, f)
		b = rest
	}
	return out, nil
}

// pbRepeated reads a repeated integer field, which may arrive packed
// (one length-delimited run of varints) or one varint at a time.
func pbRepeated(dst []uint64, f pbField) ([]uint64, error) {
	if f.data == nil {
		return append(dst, f.num), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// leafSamples decodes a pprof CPU profile and returns, per leaf
// function name, the sum of the last sample value (CPU nanoseconds).
// The leaf is the innermost frame of a sample, inlined calls included.
func leafSamples(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	type sample struct {
		leaf  uint64
		value float64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcName = map[uint64]uint64{} // function id → string index
		strs     []string
	)
	for _, f := range top {
		switch f.tag {
		case 2: // Sample: 1 location_id (leaf first), 2 value
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, sf := range fs {
				switch sf.tag {
				case 1:
					if locs, err = pbRepeated(locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbRepeated(vals, sf); err != nil {
						return nil, err
					}
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], float64(int64(vals[len(vals)-1]))})
			}
		case 4: // Location: 1 id, 4 line (innermost inlined call first)
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seenLine := false
			for _, lf := range fs {
				switch {
				case lf.tag == 1:
					id = lf.num
				case lf.tag == 4 && !seenLine:
					seenLine = true
					line, err := pbFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.tag == 1 { // Line.function_id
							fn = x.num
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function: 1 id, 2 name (string table index)
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.tag {
				case 1:
					id = ff.num
				case 2:
					name = ff.num
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}

	out := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) && strs[idx] != "" {
			name = strs[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

// layerOf names the layer a function's self time belongs to: a repo
// package for mptcplab/internal/<pkg>, "runtime" for the Go runtime
// (scheduler, allocator, collector, memmove, map and hash internals),
// "other" for everything else.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "mptcplab/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, p := range cpuSharePkgs {
			if p == pkg {
				return pkg
			}
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/internal/", "internal/runtime/", "internal/bytealg.", "internal/abi."} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	// The runtime's assembly bodies (aeshashbody, gcWriteBarrier,
	// memeqbody, ...) carry no package qualifier at all.
	if fn != "?" && !strings.Contains(fn, ".") {
		return "runtime"
	}
	return "other"
}

// cpuShares folds leaf samples by layer into shares of the total; every
// layer in cpuSharePkgs is present and the shares sum to 1.
func cpuShares(leaf map[string]float64) map[string]float64 {
	shares := map[string]float64{}
	for _, p := range cpuSharePkgs {
		shares[p] = 0
	}
	var total float64
	for fn, v := range leaf {
		shares[layerOf(fn)] += v
		total += v
	}
	if total > 0 {
		for p := range shares {
			shares[p] /= total
		}
	}
	return shares
}
