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

// ledgerLayers are the simulator packages the CPU ledger reports, each
// as cpu_share.<layer>. Samples land in the innermost frame of one of
// them, so runtime work (memmove, map lookups, allocation) and helper
// packages (bufpool, bytestream, har, trace, seqrand) count as self time
// of the layer that called them.
var ledgerLayers = []string{
	"simnet", "tcpsim", "tlssim", "quicsim", "httpsim", "browser",
	"cdn", "core", "sketch", "traffic", "webgen", "analysis",
}

// gcRoots are runtime functions whose presence anywhere on a stack
// marks the sample as garbage-collector work: background marking and
// sweeping, and mark assists charged to allocating goroutines.
var gcRoots = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
}

const internalPrefix = "h3cdn/internal/"

// bucketOf names the ledger bucket of one stack, given leaf first with
// inlined frames expanded: "gc", a ledger layer, or "other".
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		pkg, ok := internalPackage(fn)
		if !ok {
			continue
		}
		for _, l := range ledgerLayers {
			if pkg == l {
				return pkg
			}
		}
	}
	return "other"
}

// internalPackage returns the h3cdn/internal package a function belongs
// to ("h3cdn/internal/tcpsim.(*Conn).Write" → "tcpsim").
func internalPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// ledgerShares buckets every sample and returns each bucket's share of
// the total weight: every ledger layer plus "gc" and "other", summing to
// 1 when the profile holds any weight.
func ledgerShares(samples []profileSample) map[string]float64 {
	shares := map[string]float64{"gc": 0, "other": 0}
	for _, l := range ledgerLayers {
		shares[l] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return shares
	}
	for _, s := range samples {
		shares[bucketOf(s.stack)] += float64(s.weight) / float64(total)
	}
	return shares
}

// profileSample is one stack of a CPU profile with its CPU nanoseconds.
type profileSample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	weight int64
}

// parseProfile decodes a gzip-compressed pprof protobuf as written by
// runtime/pprof: just the samples, locations, functions and strings the
// ledger needs. A sample's weight is its last value (CPU nanoseconds in
// a CPU profile).
func parseProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, data)
				case 2:
					return appendPacked(&s.values, v, data)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
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
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		ps := profileSample{weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, f := range locFuncs[loc] {
				idx := funcNames[f]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function name index %d out of range", idx)
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; the ledger reads none.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (data) or not (v).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
