package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// foldPkgs are the internal packages the CPU fold reports, in the order
// of the stack from device to client.
var foldPkgs = []string{
	"flash", "blockdev", "extfs", "extalloc", "memtable", "sstable", "wal",
	"lsm", "cowtree", "btree", "betree", "kv", "replica", "store", "core",
	"workload",
}

// foldProfile reads a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and charges each sample to the nearest frame, leaf
// first and inlined frames included, that belongs to one of pkgs (the
// import path's element after "ptsbench/internal/"). Runtime helpers
// (memmove, mallocgc, write barriers) and unlisted internal packages
// are thereby charged to their nearest listed caller. Samples with no
// listed frame, chiefly background GC mark work, are charged to
// "runtime_gc". The result maps each name to its share of sampled CPU
// time and always holds every name.
func foldProfile(gz []byte, pkgs []string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		sampleTyp [][]byte
		samples   [][]byte
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleTyp = append(sampleTyp, b)
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU value is the sample type named "cpu" (nanoseconds).
	cpuIdx := -1
	for i, b := range sampleTyp {
		err := pbFields(b, func(num int, v uint64, _ []byte) error {
			if num == 1 && v < uint64(len(strs)) && strs[v] == "cpu" {
				cpuIdx = i
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	listed := map[string]bool{}
	for _, p := range pkgs {
		listed[p] = true
	}
	pkgOf := func(loc uint64) string {
		for _, fn := range locFuncs[loc] {
			idx, ok := funcName[fn]
			if !ok || idx >= uint64(len(strs)) {
				continue
			}
			rest, ok := strings.CutPrefix(strs[idx], "ptsbench/internal/")
			if !ok {
				continue
			}
			if p := rest[:strings.IndexAny(rest+".", "./")]; listed[p] {
				return p
			}
		}
		return ""
	}
	charged := map[string]int64{}
	var total int64
	for _, s := range samples {
		var locs, vals []uint64
		err := pbFields(s, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				locs = pbAppendVarints(locs, v, b)
			case 2:
				vals = pbAppendVarints(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if cpuIdx >= len(vals) {
			continue
		}
		v := int64(vals[cpuIdx])
		total += v
		to := "runtime_gc"
		for _, loc := range locs {
			if p := pkgOf(loc); p != "" {
				to = p
				break
			}
		}
		charged[to] += v
	}
	shares := map[string]float64{"runtime_gc": 0}
	for _, p := range pkgs {
		shares[p] = 0
	}
	if total > 0 {
		for p, v := range charged {
			shares[p] = float64(v) / float64(total)
		}
	}
	return shares, nil
}

// pbFields walks the fields of one protobuf message. For a varint field
// fn gets the value; for a length-delimited field, the bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes one varint, returning it and its length (0 when
// malformed).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbAppendVarints appends a repeated varint field: one value, or a
// packed run when data is set.
func pbAppendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
