package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/fabric"
	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/queuesvc"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/station"
	"azureobs/internal/storage/tablesvc"
	"azureobs/internal/wire"
)

// The layer ladder drives the same operations — a blob GET, a table get, a
// table insert and a queue add — at each public boundary from the event
// kernel up to a loopback HTTP request, and prices each rung in wall ns and
// heap allocations per operation. The difference between adjacent rungs is
// what the layer between them adds.

// ladderBlobSize is the payload of every blob GET on the ladder.
const ladderBlobSize = 4096

// ladderRunTarget is the wall time one timed repetition of a rung aims at.
const ladderRunTarget = 40 * time.Millisecond

// rungRun is a prepared rung: run executes the n operations it was
// prepared for and returns how many failed; done releases what prepare
// built.
type rungRun struct {
	run  func() (failed int)
	done func()
}

type rung struct {
	name    string
	prepare func(seed uint64, n int) (rungRun, error)
}

type ladderResult struct {
	values   map[string]float64
	ops      int64
	failed   int64
	failures []string
}

// runLadder measures every rung: it grows n until one repetition takes
// ladderRunTarget, then reports the median of three repetitions. It also
// reports azure.retry_ratio, the server requests the azure client rungs
// caused per client operation.
func runLadder(seed uint64) (ladderResult, error) {
	res := ladderResult{values: map[string]float64{}}
	var clientOps, serverReqs int64
	for _, r := range ladder(&serverReqs) {
		n := 16
		var ns, allocs []float64
		for len(ns) < 3 {
			rr, err := r.prepare(seed, n)
			if err != nil {
				return res, fmt.Errorf("ladder %s: %w", r.name, err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			failed := rr.run()
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			rr.done()
			res.ops += int64(n)
			res.failed += int64(failed)
			if failed > 0 && len(res.failures) < 4 {
				res.failures = append(res.failures, fmt.Sprintf("ladder %s: %d of %d operations failed", r.name, failed, n))
			}
			if strings.HasPrefix(r.name, "azure.") {
				clientOps += int64(n)
			}
			if d < ladderRunTarget && len(ns) == 0 && n < 1<<22 {
				n *= 4
				continue
			}
			ns = append(ns, float64(d)/float64(n))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		}
		res.values["ladder."+r.name+".ns_per_op"] = median(ns)
		res.values["ladder."+r.name+".allocs_per_op"] = median(allocs)
	}
	if clientOps > 0 {
		res.values["azure.retry_ratio"] = float64(serverReqs) / float64(clientOps)
	}
	return res, nil
}

// flatLoop binds an actor on eng and runs op n times back to back: op
// starts one operation whose completion must call next.
func flatLoop(eng *sim.Engine, n int, op func(a *sim.Actor, next func())) {
	var a sim.Actor
	a.Bind(eng, "ladder")
	i := 0
	var next func()
	next = func() {
		if i == n {
			a.Finish()
			return
		}
		i++
		op(&a, next)
	}
	a.Go(next)
}

// ladderCloud is a cloud with one container holding the ladder blob, one
// table holding entity p/r, and one queue.
func ladderCloud(seed uint64) (*azure.Cloud, *queuesvc.Queue) {
	cfg := azure.Config{Seed: seed}
	cfg.Fabric = fabric.DefaultConfig()
	cfg.Fabric.Degradation = false
	c := azure.NewCloud(cfg)
	c.Blob.CreateContainer("c")
	c.Blob.Seed("c", "b", ladderBlobSize)
	c.Table.CreateTable("t")
	c.Table.Backdoor("t", tablesvc.PaddedEntity("p", "r", 1024))
	return c, c.Queue.CreateQueue("q")
}

func engineRung(eng *sim.Engine, failed *int) rungRun {
	return rungRun{run: func() int { eng.Run(); return *failed }, done: func() {}}
}

// ladder lists the rungs bottom up; the azure client rungs count their
// storage pipeline requests into serverReqs (the hooks run on the ladder's
// own goroutine).
func ladder(serverReqs *int64) []rung {
	rs := []rung{
		{"sim.schedule", func(seed uint64, n int) (rungRun, error) {
			eng := sim.NewEngine()
			i := 0
			var fire func()
			fire = func() {
				i++
				if i < n {
					eng.Schedule(eng.Now()+time.Microsecond, fire)
				}
			}
			eng.Schedule(0, fire)
			failed := 0
			return engineRung(eng, &failed), nil
		}},
		{"sim.actor_sleep", func(seed uint64, n int) (rungRun, error) {
			eng := sim.NewEngine()
			flatLoop(eng, n, func(a *sim.Actor, next func()) { a.Sleep(time.Microsecond, next) })
			failed := 0
			return engineRung(eng, &failed), nil
		}},
		{"netsim.transfer_flat", func(seed uint64, n int) (rungRun, error) {
			eng := sim.NewEngine()
			fab := netsim.NewFabric(eng)
			link := fab.NewLink("nic", 100*netsim.MBps)
			flatLoop(eng, n, func(a *sim.Actor, next func()) { fab.TransferFlat(a, ladderBlobSize, next, link) })
			failed := 0
			return engineRung(eng, &failed), nil
		}},
		{"station.visit", func(seed uint64, n int) (rungRun, error) {
			eng := sim.NewEngine()
			st := station.New(station.Config{S0: 5 * time.Millisecond, N0: 64, Gamma: 2, CV: 0.3}, simrand.New(seed))
			var next func()
			after := func() { st.EndVisit(); next() }
			flatLoop(eng, n, func(a *sim.Actor, nx func()) { next = nx; a.Sleep(st.BeginVisit(0), after) })
			failed := 0
			return engineRung(eng, &failed), nil
		}},
		{"reqpath.ctxflat", func(seed uint64, n int) (rungRun, error) {
			eng := sim.NewEngine()
			pl := reqpath.New(simrand.New(seed), reqpath.Config{Service: "blob", Latency: simrand.LogNormalMeanCV(0.015, 0.4)})
			var c reqpath.CtxFlat
			failed := 0
			var a *sim.Actor
			var next func()
			post := func() {
				err := c.AdmitPost()
				if err != nil {
					failed++
				}
				c.Finish(a.Now(), err)
				next()
			}
			flatLoop(eng, n, func(act *sim.Actor, nx func()) {
				a, next = act, nx
				c.Begin(pl, "get", a.Now())
				d, sleep, err := c.AdmitPre()
				switch {
				case err != nil:
					failed++
					c.Finish(a.Now(), err)
					next()
				case sleep:
					a.Sleep(d, post)
				default:
					post()
				}
			})
			return engineRung(eng, &failed), nil
		}},
		{"reqpath.pipeline_do", func(seed uint64, n int) (rungRun, error) {
			eng := sim.NewEngine()
			pl := reqpath.New(simrand.New(seed), reqpath.Config{Service: "blob", Latency: simrand.LogNormalMeanCV(0.015, 0.4)})
			failed := 0
			body := func(*reqpath.Ctx) error { return nil }
			eng.Spawn("ladder", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if pl.Do(p, "get", body) != nil {
						failed++
					}
				}
			})
			return engineRung(eng, &failed), nil
		}},
		{"blobsvc.get_flat", func(seed uint64, n int) (rungRun, error) {
			c, _ := ladderCloud(seed)
			sess := c.Blob.NewSession(0)
			failed := 0
			flatLoop(c.Engine, n, func(a *sim.Actor, next func()) {
				sess.GetFlat(a, "c", "b", func(size int64, err error) {
					if err != nil || size != ladderBlobSize {
						failed++
					}
					next()
				})
			})
			return engineRung(c.Engine, &failed), nil
		}},
		{"tablesvc.get_flat", func(seed uint64, n int) (rungRun, error) {
			c, _ := ladderCloud(seed)
			failed := 0
			var next func()
			g := c.Table.NewGetFlat(func(e *tablesvc.Entity, err error) {
				if err != nil || e == nil {
					failed++
				}
				next()
			})
			flatLoop(c.Engine, n, func(a *sim.Actor, nx func()) { next = nx; g.Begin(a, "t", "p", "r") })
			return engineRung(c.Engine, &failed), nil
		}},
		{"tablesvc.insert_flat", func(seed uint64, n int) (rungRun, error) {
			c, _ := ladderCloud(seed)
			ents := make([]*tablesvc.Entity, n)
			for i := range ents {
				ents[i] = tablesvc.PaddedEntity("p", "i"+strconv.Itoa(i), 1024)
			}
			failed := 0
			var next func()
			wr := c.Table.NewWriteFlat(func(err error) {
				if err != nil {
					failed++
				}
				next()
			})
			i := 0
			flatLoop(c.Engine, n, func(a *sim.Actor, nx func()) { next = nx; wr.BeginInsert(a, "t", ents[i]); i++ })
			return engineRung(c.Engine, &failed), nil
		}},
		{"queuesvc.add_flat", func(seed uint64, n int) (rungRun, error) {
			c, q := ladderCloud(seed)
			r := c.Queue.NewReqFlat()
			failed := 0
			flatLoop(c.Engine, n, func(a *sim.Actor, next func()) {
				r.BeginAdd(a, q, "m", 512, func(_ uint64, err error) {
					if err != nil {
						failed++
					}
					next()
				})
			})
			return engineRung(c.Engine, &failed), nil
		}},
		{"tablesvc.get_blocking", func(seed uint64, n int) (rungRun, error) {
			c, _ := ladderCloud(seed)
			failed := 0
			c.Engine.Spawn("ladder", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if e, err := c.Table.Get(p, "t", "p", "r"); err != nil || e == nil {
						failed++
					}
				}
			})
			return engineRung(c.Engine, &failed), nil
		}},
		{"azure.get_blob_flat", func(seed uint64, n int) (rungRun, error) {
			c, _ := ladderCloud(seed)
			countRequests(c, serverReqs)
			cl := c.NewClient(c.Controller.ReadyFleet(1, fabric.Worker, fabric.Small)[0], 0)
			failed := 0
			flatLoop(c.Engine, n, func(a *sim.Actor, next func()) {
				cl.GetBlobFlat(a, "c", "b", func(size int64, err error) {
					if err != nil || size != ladderBlobSize {
						failed++
					}
					next()
				})
			})
			return engineRung(c.Engine, &failed), nil
		}},
		{"azure.get_entity_flat", func(seed uint64, n int) (rungRun, error) {
			c, _ := ladderCloud(seed)
			countRequests(c, serverReqs)
			cl := c.NewClient(c.Controller.ReadyFleet(1, fabric.Worker, fabric.Small)[0], 0)
			failed := 0
			flatLoop(c.Engine, n, func(a *sim.Actor, next func()) {
				cl.GetEntityFlat(a, "t", "p", "r", func(e *tablesvc.Entity, err error) {
					if err != nil || e == nil {
						failed++
					}
					next()
				})
			})
			return engineRung(c.Engine, &failed), nil
		}},
	}
	for _, op := range wireOps {
		op := op
		rs = append(rs, rung{"wire.inline." + op.name, func(seed uint64, n int) (rungRun, error) {
			return inlineRung(seed, n, op)
		}})
	}
	for _, op := range wireOps {
		op := op
		rs = append(rs, rung{"wire.http." + op.name, func(seed uint64, n int) (rungRun, error) {
			return httpRung(seed, n, op)
		}})
	}
	return rs
}

func countRequests(c *azure.Cloud, n *int64) {
	for _, name := range azure.StorageServices {
		c.StoragePipeline(name).AddHook(func(reqpath.Event) { *n++ })
	}
}

// wireOp is one ladder operation in REST form; uri(i) is the i-th request.
type wireOp struct {
	name   string
	method string
	uri    func(i int) string
	header map[string]string
	want   int
}

var wireOps = []wireOp{
	{"blob_get", "GET", func(int) string { return "/c/b" }, nil, 200},
	{"entity_get", "GET", func(int) string { return "/table/t/p/r" }, nil, 200},
	{"entity_insert", "POST", func(i int) string { return "/table/t/p/i" + strconv.Itoa(i) }, map[string]string{"x-ms-size": "1024"}, 201},
	{"queue_add", "POST", func(int) string { return "/queue/q/messages?size=512" }, nil, 201},
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// inlineRung calls Facade.ServeHTTP directly through an InlineGate that
// drains the engine after each request.
func inlineRung(seed uint64, n int, op wireOp) (rungRun, error) {
	c, _ := ladderCloud(seed)
	f := wire.New(c, wire.NewInlineGate(c.Engine, true))
	reqs := make([]*http.Request, n)
	for i := range reqs {
		r, err := http.NewRequest(op.method, "http://ladder"+op.uri(i), nil)
		if err != nil {
			return rungRun{}, err
		}
		for k, v := range op.header {
			r.Header.Set(k, v)
		}
		reqs[i] = r
	}
	w := &discardWriter{h: http.Header{}}
	return rungRun{
		run: func() int {
			failed := 0
			for _, r := range reqs {
				w.status = 200
				f.ServeHTTP(w, r)
				if w.status != op.want {
					failed++
				}
			}
			return failed
		},
		done: func() {},
	}, nil
}

// httpRung sends each request over one keep-alive loopback connection to
// the facade behind net/http on a free-running RealTime gate, as wire-mix
// serves it.
func httpRung(seed uint64, n int, op wireOp) (rungRun, error) {
	c, _ := ladderCloud(seed)
	rt := sim.NewRealTime(c.Engine, sim.FreeRun)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rungRun{}, err
	}
	srv := &http.Server{Handler: wire.New(c, rt)}
	var served sync.WaitGroup
	served.Add(2)
	go func() { defer served.Done(); rt.Serve() }()
	go func() {
		defer served.Done()
		// A listener that fails shows as failed requests, so the error
		// Serve returns when stop closes it carries nothing more.
		_ = srv.Serve(ln)
	}()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()
	stop := func() {
		srv.Close()
		rt.Close()
		served.Wait()
		tr.CloseIdleConnections()
	}
	reqs := make([]*http.Request, n)
	for i := range reqs {
		r, err := http.NewRequest(op.method, base+op.uri(i), nil)
		if err != nil {
			stop()
			return rungRun{}, err
		}
		for k, v := range op.header {
			r.Header.Set(k, v)
		}
		reqs[i] = r
	}
	// Warm the connection so the timed requests reuse it.
	if resp, err := client.Get(base + "/healthz"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return rungRun{
		run: func() int {
			failed := 0
			for _, r := range reqs {
				resp, err := client.Do(r)
				if err != nil {
					failed++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != op.want {
					failed++
				}
			}
			return failed
		},
		done: stop,
	}, nil
}
