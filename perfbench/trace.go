package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// tracer holds the spans and counters of the traced run in memory; they
// are written out when the run ends. A nil *tracer records nothing, so the
// untraced phases pass nil.
type tracer struct {
	t0             time.Time
	goroutinesPeak atomic.Int64

	mu    sync.Mutex
	spans []span
	// reqOf maps a handler goroutine to the wire request it is serving, so
	// the gate wrapper, called on that goroutine, can tag its span.
	reqOf map[uint64]uint64
}

// span is one timed call into a public function. Spans of one wire request
// share ID (0 for spans outside a request); Start and End are nanoseconds
// since the traced phase began.
type span struct {
	Name  string `json:"name"`
	ID    uint64 `json:"id"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), reqOf: map[uint64]uint64{}}
}

func (t *tracer) span(name string, id uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// bindRequest records that the calling goroutine serves request id until
// unbindRequest is called with the returned goroutine id.
func (t *tracer) bindRequest(id uint64) (g uint64) {
	g = goid()
	t.mu.Lock()
	t.reqOf[g] = id
	t.mu.Unlock()
	return g
}

func (t *tracer) unbindRequest(g uint64) {
	t.mu.Lock()
	delete(t.reqOf, g)
	t.mu.Unlock()
}

func (t *tracer) currentRequest() uint64 {
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqOf[g]
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack trace ("goroutine 123 [running]:"). The traced run uses it to
// tie the gate span to the handler span of the same request, since
// wire.Gate.Do receives no request context.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// requests counts the wire requests with a client span.
func (t *tracer) requests() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == "wire.client" && s.ID != 0 {
			n++
		}
	}
	return n
}

// wireSelfTimes computes, per wire request, the self time of each of its
// four nested spans (client ⊃ handler ⊃ gate ⊃ engine closure) as the span
// minus its child, and returns their p50 and p99 in microseconds. It
// returns nothing when no request was traced.
func (t *tracer) wireSelfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type req struct{ client, serve, gate, engine int64 }
	byID := map[uint64]*req{}
	for _, s := range t.spans {
		if s.ID == 0 {
			continue
		}
		r := byID[s.ID]
		if r == nil {
			r = &req{}
			byID[s.ID] = r
		}
		d := s.End - s.Start
		switch s.Name {
		case "wire.client":
			r.client = d
		case "wire.serve":
			r.serve = d
		case "wire.gate":
			r.gate = d
		case "wire.engine":
			r.engine = d
		}
	}
	self := map[string][]float64{}
	for _, r := range byID {
		if r.client == 0 || r.serve == 0 || r.gate == 0 || r.engine == 0 {
			continue
		}
		self["client"] = append(self["client"], float64(r.client-r.serve)/1e3)
		self["serve"] = append(self["serve"], float64(r.serve-r.gate)/1e3)
		self["gate_wait"] = append(self["gate_wait"], float64(r.gate-r.engine)/1e3)
		self["engine"] = append(self["engine"], float64(r.engine)/1e3)
	}
	out := map[string]float64{}
	for _, name := range wireSpans {
		xs := self[name]
		if len(xs) == 0 {
			continue
		}
		out["wire."+name+"_us_p50"] = quantile(xs, 0.50)
		out["wire."+name+"_us_p99"] = quantile(xs, 0.99)
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampleGoroutines tracks the peak goroutine count every millisecond until
// the returned stop function is called; stop returns once the sampler has
// exited.
func sampleGoroutines(t *tracer) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > t.goroutinesPeak.Load() {
				t.goroutinesPeak.Store(n)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// profile is a CPU profile in progress.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile, writes it to path for go tool pprof, and returns
// its self samples by function.
func (p *profile) stop(path string) ([]cpuSample, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return parseCPUProfile(p.buf.Bytes())
}
