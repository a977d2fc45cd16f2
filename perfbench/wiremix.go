package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/sim"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/wire"
)

// wireConns is the number of keep-alive client connections; it equals the
// CPU count of the host the baseline was captured on.
const wireConns = 2

// wireIters is how many times each connection runs the nine-step script in
// one pass.
const wireIters = 60

// wireMix serves the REST facade as cmd/azserve builds it (wire.New over a
// free-running sim.RealTime, behind net/http on loopback) and drives it from
// wireConns closed-loop connections. An operation is one HTTP request.
type wireMix struct {
	seed   uint64
	passNo int

	cloud   *azure.Cloud
	rt      *sim.RealTime
	srv     *http.Server
	rec     *wire.Recorder
	base    string
	clients [wireConns]*http.Client
	served  sync.WaitGroup // rt.Serve and srv.Serve
	tr      *tracer

	// reqs and reqErrs count the storage pipelines' completed requests;
	// hooks run on the engine goroutine.
	reqs, reqErrs atomic.Int64

	// live holds each connection's responses in send order, set-up included,
	// for the replay check.
	live [wireConns][]liveResp
}

type liveResp struct {
	status int
	code   string
}

func (w *wireMix) configure(expected) error            { return nil }
func (w *wireMix) inputSeed(seed uint64, _ int) uint64 { return seed }
func (w *wireMix) opName() string                      { return "one HTTP request" }
func (w *wireMix) minPasses() int                      { return 1 }

// setup starts a fresh cloud, gate and HTTP server and creates each
// connection's container, table and queue over HTTP.
func (w *wireMix) setup(seed uint64, tr *tracer) error {
	w.seed = seed
	w.tr = tr
	w.reqs.Store(0)
	w.reqErrs.Store(0)
	w.cloud = azure.NewCloud(azure.Config{Seed: seed})
	for _, name := range azure.StorageServices {
		w.cloud.StoragePipeline(name).AddHook(func(ev reqpath.Event) {
			w.reqs.Add(1)
			if ev.Err != nil {
				w.reqErrs.Add(1)
			}
		})
	}
	w.rt = sim.NewRealTime(w.cloud.Engine, sim.FreeRun)
	var gate wire.Gate = w.rt
	if w.tr != nil {
		gate = &spanGate{rt: w.rt, tr: w.tr}
	}
	f := wire.New(w.cloud, gate)
	w.rec = wire.NewRecorder()
	f.SetRecorder(w.rec)
	var h http.Handler = f
	if w.tr != nil {
		h = &spanHandler{next: f, tr: w.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("wire-mix: %w", err)
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: h}
	w.served.Add(2)
	go func() {
		defer w.served.Done()
		w.rt.Serve()
	}()
	go func() {
		defer w.served.Done()
		// A listener that fails shows as failed requests, so the error
		// Serve returns when close stops it carries nothing more.
		_ = w.srv.Serve(ln)
	}()
	for k := range w.clients {
		w.clients[k] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		w.live[k] = w.live[k][:0]
		for _, uri := range []string{"/w" + strconv.Itoa(k), "/table/tw" + strconv.Itoa(k), "/queue/qw" + strconv.Itoa(k)} {
			st, code, _, err := w.do(k, 0, "PUT", uri, nil)
			if err != nil || st != 201 {
				w.close()
				return fmt.Errorf("wire-mix set-up PUT %s: status %d %s %v", uri, st, code, err)
			}
		}
	}
	return nil
}

// do sends one request on connection k and records the response in the
// connection's live log; id tags the client span (0: untraced).
func (w *wireMix) do(k int, id uint64, method, uri string, hdr map[string]string) (int, string, http.Header, error) {
	req, err := http.NewRequest(method, w.base+uri, nil)
	if err != nil {
		return 0, "", nil, err
	}
	for hk, hv := range hdr {
		req.Header.Set(hk, hv)
	}
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	t0 := time.Now()
	resp, err := w.clients[k].Do(req)
	if err != nil {
		w.live[k] = append(w.live[k], liveResp{})
		return 0, "", nil, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if id != 0 {
		w.tr.span("wire.client", id, t0, time.Now())
	}
	code := resp.Header.Get("x-ms-error-code")
	w.live[k] = append(w.live[k], liveResp{resp.StatusCode, code})
	return resp.StatusCode, code, resp.Header, err
}

// pass runs the script wireIters times on every connection concurrently.
// The nine steps are blob PUT, GET and HEAD; entity insert, get and
// partition query; queue put, get and delete. Four of nine write. Sizes
// come from the seed.
func (w *wireMix) pass(tr *tracer) passOut {
	w.passNo++
	var out passOut
	lat := make([][]float64, wireConns)
	fails := make([][]string, wireConns)
	var wg sync.WaitGroup
	for k := 0; k < wireConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lat[k], fails[k] = w.script(k, tr)
		}(k)
	}
	wg.Wait()
	for k := range lat {
		out.opLat = append(out.opLat, lat[k]...)
		out.failures = append(out.failures, fails[k]...)
		out.failed += int64(len(fails[k]))
	}
	if tr != nil {
		out.layer = map[string]float64{
			"reqpath.requests": float64(w.reqs.Load()),
			"reqpath.errors":   float64(w.reqErrs.Load()),
		}
		eng := w.cloud.Engine
		w.rt.Do(func() {
			out.layer["sim.events"] = float64(eng.EventsFired())
			out.layer["sim.procs_spawned"] = float64(eng.ProcsSpawned())
			out.layer["sim.workers_peak"] = float64(eng.WorkersPeak())
		})
	}
	return out
}

func (w *wireMix) script(k int, tr *tracer) (lat []float64, fails []string) {
	rng := rand.New(rand.NewSource(int64(w.seed)*1000003 + int64(k)))
	ks := strconv.Itoa(k)
	var seq uint64
	step := func(method, uri string, hdr map[string]string, want int) http.Header {
		seq++
		var id uint64
		if tr != nil {
			id = uint64(k+1)<<40 | uint64(w.passNo)<<20 | seq
		}
		t0 := time.Now()
		st, code, h, err := w.do(k, id, method, uri, hdr)
		lat = append(lat, ms(time.Since(t0)))
		if err != nil || st != want {
			fails = append(fails, fmt.Sprintf("%s %s: status %d %s, want %d (%v)", method, uri, st, code, want, err))
		}
		return h
	}
	for i := 0; i < wireIters; i++ {
		name := fmt.Sprintf("%d-%d", w.passNo, i)
		blob := "/w" + ks + "/b" + name
		step("PUT", blob, map[string]string{"x-ms-size": strconv.Itoa(512 + rng.Intn(7681))}, 201)
		step("GET", blob, nil, 200)
		step("HEAD", blob, nil, 200)
		part := "/table/tw" + ks + "/p" + name
		step("POST", part+"/r0", map[string]string{"x-ms-size": strconv.Itoa(256 + rng.Intn(3841))}, 201)
		step("GET", part+"/r0", nil, 200)
		step("GET", part, nil, 200)
		q := "/queue/qw" + ks + "/messages"
		step("POST", q+"?size="+strconv.Itoa(64+rng.Intn(961)), nil, 201)
		h := step("GET", q+"?visibilitytimeout=60", nil, 200)
		rcpt := ""
		if h != nil {
			rcpt = h.Get("x-ms-popreceipt")
		}
		step("DELETE", q+"/"+rcpt, nil, 204)
	}
	return lat, fails
}

// verify replays the recorded arrivals on a fresh cloud in virtual time and
// requires every replayed status and error code to equal the live response
// the connection saw. Each mismatching request counts as failed.
func (w *wireMix) verify(out *passOut) {
	var arrivals []wire.Arrival
	w.rt.Do(func() { arrivals = append(arrivals, w.rec.Arrivals()...) })
	trace := wire.Replay(azure.Config{Seed: w.seed}, arrivals)
	var next [wireConns]int
	bad := 0
	for i, a := range arrivals {
		k := connOf(a.URI)
		if k < 0 || next[k] >= len(w.live[k]) {
			bad++
			out.failures = append(out.failures, fmt.Sprintf("replay: arrival %d %s %s matches no live request", i, a.Method, a.URI))
			continue
		}
		l := w.live[k][next[k]]
		next[k]++
		if l.status != trace[i].Status || l.code != trace[i].Code {
			bad++
			if bad <= 4 {
				out.failures = append(out.failures, fmt.Sprintf("replay: %s %s live %d %q, replay %d %q",
					a.Method, a.URI, l.status, l.code, trace[i].Status, trace[i].Code))
			}
		}
	}
	for k := range w.live {
		if missing := len(w.live[k]) - next[k]; missing > 0 {
			bad += missing
			out.failures = append(out.failures, fmt.Sprintf("replay: %d live requests on connection %d never arrived", missing, k))
		}
	}
	out.failed += int64(bad)
}

// connOf returns the connection whose resources a request URI names: every
// resource of connection k ends in the digit k (/w<k>, /table/tw<k>,
// /queue/qw<k>).
func connOf(uri string) int {
	seg := strings.Split(strings.TrimPrefix(uri, "/"), "/")
	name := seg[0]
	if (name == "table" || name == "queue") && len(seg) > 1 {
		name = seg[1]
	}
	if i := strings.IndexByte(name, '?'); i >= 0 {
		name = name[:i]
	}
	if len(name) < 2 {
		return -1
	}
	k, err := strconv.Atoi(name[len(name)-1:])
	if err != nil || k >= wireConns {
		return -1
	}
	return k
}

// close stops the server and the gate and waits for both to return.
func (w *wireMix) close() {
	if w.srv == nil {
		return
	}
	w.srv.Close()
	w.rt.Close()
	w.served.Wait()
	for _, c := range w.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	w.srv, w.rt, w.cloud, w.rec = nil, nil, nil, nil
}

// spanHeader carries a traced request's id from the client to the handler
// wrapper.
const spanHeader = "x-perfbench-id"

// spanHandler records the handler span around Facade.ServeHTTP and binds
// the request id to the serving goroutine for the gate wrapper.
type spanHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *spanHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	if id == 0 {
		h.next.ServeHTTP(rw, r)
		return
	}
	g := h.tr.bindRequest(id)
	t0 := time.Now()
	h.next.ServeHTTP(rw, r)
	h.tr.span("wire.serve", id, t0, time.Now())
	h.tr.unbindRequest(g)
}

// spanGate records the gate span around sim.RealTime.Do and the engine span
// around the closure it carries onto the engine goroutine.
type spanGate struct {
	rt *sim.RealTime
	tr *tracer
}

func (g *spanGate) Do(fn func()) bool {
	id := g.tr.currentRequest()
	if id == 0 {
		return g.rt.Do(fn)
	}
	t0 := time.Now()
	ok := g.rt.Do(func() {
		e0 := time.Now()
		fn()
		g.tr.span("wire.engine", id, e0, time.Now())
	})
	g.tr.span("wire.gate", id, t0, time.Now())
	return ok
}
