package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is the self time of one profile sample: the innermost function
// of its leaf frame and the CPU nanoseconds the sample stands for.
type cpuSample struct {
	fn string
	ns int64
}

// parseCPUProfile decodes the gzipped profile.proto runtime/pprof writes,
// keeping only what self time needs: each sample's leaf location, resolved
// to the innermost (possibly inlined) function name.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		strs      []string
		locFn     = map[uint64]uint64{} // location id → innermost function id
		fnName    = map[uint64]int64{}  // function id → string index
		valueSlot = 1                   // CPU profiles carry [count, nanoseconds]
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var locs, vals []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) == 0 {
				return nil
			}
			s.leaf = locs[0]
			if valueSlot < len(vals) {
				s.value = int64(vals[valueSlot])
			} else {
				s.value = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined function
					if fn == 0 {
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		name := "?"
		if i, ok := fnName[locFn[s.leaf]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out = append(out, cpuSample{fn: name, ns: s.value})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(xs []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(xs, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return xs
		}
		xs = append(xs, x)
		b = b[n:]
	}
	return xs
}

// cpuShares buckets self CPU time by module and returns each module's share
// of the total; every module of cpuModules is present.
func cpuShares(samples []cpuSample) map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		by[moduleOf(s.fn)] += s.ns
		total += s.ns
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			out[m] = float64(by[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out
}

// moduleOf maps a fully qualified Go function name to its cpu_share bucket.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // type arguments may hold other package paths
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	const repo = "azureobs/internal/"
	if strings.HasPrefix(pkg, repo) {
		p := strings.TrimPrefix(pkg, repo)
		p = strings.TrimPrefix(p, "storage/")
		if i := strings.IndexByte(p, '/'); i >= 0 {
			p = p[:i] // core/sched counts as core
		}
		for _, m := range cpuModules {
			if m == p {
				return m
			}
		}
		return "other"
	}
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "bufio" ||
		pkg == "syscall" || pkg == "internal/syscall/unix" || pkg == "internal/runtime/syscall":
		return "net_http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync" || pkg == "sync/atomic":
		return runtimeBucket(fn)
	}
	return "other"
}

// runtimeBucket splits runtime self time into garbage collection, goroutine
// scheduling and synchronisation, and the rest (allocation, maps, copies),
// which counts as other.
func runtimeBucket(fn string) string {
	f := strings.ToLower(fn)
	has := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(f, s) {
				return true
			}
		}
		return false
	}
	switch {
	case has("malloc", "newobject", "makeslice", "growslice", "memclr", "memmove", "runtime/maps", "mapaccess", "mapassign", "mapdelete"):
		return "other"
	case has("gc", "mark", "scan", "sweep", "wbbuf", "writebarrier", "scaveng", "greyobject", "findobject", "heapbits", "typepointers"):
		return "runtime_gc"
	case strings.HasPrefix(fn, "sync") || has("schedule", "findrunnable", "park", "ready", "runq", "mcall", "gosched", "futex",
		"note", "steal", "wakep", "startm", "stopm", "handoff", "goexit", "newproc", "chan", "select", "sema", "lock",
		"usleep", "osyield", "procyield", "netpoll", "epoll", "timer", "execute", "gogo", "gopark"):
		return "runtime_sched"
	}
	return "other"
}
