package wire

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"net/url"
	"strconv"
	"strings"
	"time"

	"azureobs/internal/azure"
)

// Arrival is one recorded request in canonical form: the virtual instant it
// reached the facade plus the (method, uri, size, body) tuple every op is
// parsed from. An arrival log is a complete, replayable description of a
// serving session.
type Arrival struct {
	At     time.Duration
	Method string
	URI    string
	Size   int64
	Body   string
}

// Recorder captures arrivals as they pass through the facade. It is
// engine-side state: record runs only on the gate goroutine, so no lock.
type Recorder struct {
	arrivals []Arrival
}

// NewRecorder builds an empty recorder; install with Facade.SetRecorder.
func NewRecorder() *Recorder { return &Recorder{} }

func (r *Recorder) record(at time.Duration, op *wireOp) {
	r.arrivals = append(r.arrivals, Arrival{
		At: at, Method: op.method, URI: op.uri, Size: op.size, Body: op.body,
	})
}

// Arrivals returns the captured log. Call only after serving has stopped.
func (r *Recorder) Arrivals() []Arrival { return r.arrivals }

// WriteTo serialises the log in the one-line-per-arrival text format:
//
//	<at_ns> <method> <uri> <size> <body-escaped|->
//
// The body is query-escaped so the line stays whitespace-delimited.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, a := range r.arrivals {
		body := "-"
		if a.Body != "" {
			body = url.QueryEscape(a.Body)
		}
		m, err := fmt.Fprintf(w, "%d %s %s %d %s\n", a.At.Nanoseconds(), a.Method, a.URI, a.Size, body)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ParseArrivals reads the WriteTo format. Blank lines and #-comments are
// skipped; a malformed line is an error naming its number.
func ParseArrivals(r io.Reader) ([]Arrival, error) {
	var out []Arrival
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 5 {
			return nil, fmt.Errorf("wire: arrivals line %d: want 5 fields, got %d", lineNo, len(f))
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: arrivals line %d: bad timestamp %q", lineNo, f[0])
		}
		size, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: arrivals line %d: bad size %q", lineNo, f[3])
		}
		body := ""
		if f[4] != "-" {
			body, err = url.QueryUnescape(f[4])
			if err != nil {
				return nil, fmt.Errorf("wire: arrivals line %d: bad body escape", lineNo)
			}
		}
		out = append(out, Arrival{
			At: time.Duration(ns), Method: f[1], URI: f[2], Size: size, Body: body,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// TraceEntry is one request's observable outcome in a replay: when it
// arrived, the virtual instant it completed, and what the wire answered.
type TraceEntry struct {
	Index  int
	At     time.Duration
	End    time.Duration
	Status int
	Code   string
	Size   int64
}

// Replay drives a recorded arrival log through a fresh facade on a fresh
// cloud, entirely in virtual time, dispatching each arrival exactly as the
// live facade would have. The live free-running gate drains the engine
// before it admits the next request, so a request that arrives at the
// instant another one completes starts after that completion; Replay
// matches it by running the engine up to each arrival's instant before
// dispatching it (arrivals sharing an instant dispatch back to back, as one
// gate batch does). The returned trace is a pure function of (cfg,
// arrivals) — replaying a recording twice yields bit-identical traces,
// which TraceHash pins.
func Replay(cfg azure.Config, arrivals []Arrival) []TraceEntry {
	cloud := azure.NewCloud(cfg)
	eng := cloud.Engine
	f := New(cloud, nil)
	out := make([]TraceEntry, len(arrivals))
	for i := range arrivals {
		i := i
		ar := arrivals[i]
		if ar.At > eng.Now() {
			eng.RunUntil(ar.At)
		}
		op := parseOp(ar.Method, ar.URI, ar.Size, ar.Body)
		f.start(op, func(r wireResult) {
			status, code, size := r.render()
			out[i] = TraceEntry{
				Index: i, At: ar.At, End: eng.Now(),
				Status: status, Code: code, Size: size,
			}
		})
	}
	eng.Run()
	return out
}

// TraceHash folds a trace to one FNV-64a word — the bit-identity anchor.
func TraceHash(entries []TraceEntry) uint64 {
	h := fnv.New64a()
	for _, e := range entries {
		fmt.Fprintf(h, "%d|%d|%d|%d|%s|%d\n",
			e.Index, e.At.Nanoseconds(), e.End.Nanoseconds(), e.Status, e.Code, e.Size)
	}
	return h.Sum64()
}
