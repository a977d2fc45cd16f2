package wire

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/sim"
	"azureobs/internal/storage/storerr"
)

const testSeed = 7331

// testServer is a live facade behind a real HTTP listener, free-running on
// a RealTime gate — the full production stack minus the network.
type testServer struct {
	t     *testing.T
	cloud *azure.Cloud
	rt    *sim.RealTime
	f     *Facade
	srv   *httptest.Server
}

func newTestServer(t *testing.T) *testServer {
	t.Helper()
	cloud := azure.NewCloud(azure.Config{Seed: testSeed})
	rt := sim.NewRealTime(cloud.Engine, sim.FreeRun)
	f := New(cloud, rt)
	srv := httptest.NewServer(f)
	go rt.Serve()
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	return &testServer{t: t, cloud: cloud, rt: rt, f: f, srv: srv}
}

// do issues one request and returns the response with its body drained.
func (ts *testServer) do(method, path string, header map[string]string) (*http.Response, string) {
	ts.t.Helper()
	req, err := http.NewRequest(method, ts.srv.URL+path, nil)
	if err != nil {
		ts.t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ts.t.Fatalf("%s %s: %v", method, path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		ts.t.Fatalf("%s %s: reading body: %v", method, path, err)
	}
	return resp, string(body)
}

func (ts *testServer) want(method, path string, header map[string]string, wantStatus int) (*http.Response, string) {
	ts.t.Helper()
	resp, body := ts.do(method, path, header)
	if resp.StatusCode != wantStatus {
		ts.t.Fatalf("%s %s: status %d, want %d (body %q)", method, path, resp.StatusCode, wantStatus, body)
	}
	return resp, body
}

func TestWireBlobLifecycle(t *testing.T) {
	ts := newTestServer(t)
	size := map[string]string{"x-ms-size": "1048576"}

	ts.want("PUT", "/files", nil, 201)
	ts.want("PUT", "/files/report", size, 201)
	ts.want("HEAD", "/files/report", nil, 200)

	resp, body := ts.want("GET", "/files/report", nil, 200)
	if resp.ContentLength != 1048576 || int64(len(body)) != 1048576 {
		t.Fatalf("GET length %d (body %d), want 1048576", resp.ContentLength, len(body))
	}
	if strings.Trim(body, "\x00") != "" {
		t.Fatal("blob payload is not all zero bytes")
	}

	// Conditional create against an existing blob: the classic 409.
	resp, body = ts.do("PUT", "/files/report", map[string]string{"x-ms-size": "10", "If-None-Match": "*"})
	if resp.StatusCode != 409 {
		t.Fatalf("conditional PUT status %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get("x-ms-error-code"); got != "BlobAlreadyExists" {
		t.Fatalf("x-ms-error-code %q, want BlobAlreadyExists", got)
	}
	if !strings.Contains(body, "<Code>BlobAlreadyExists</Code>") {
		t.Fatalf("envelope missing code: %q", body)
	}

	ts.want("DELETE", "/files/report", nil, 202)
	ts.want("HEAD", "/files/report", nil, 404)
	ts.want("GET", "/files/report", nil, 404)
	ts.want("DELETE", "/files/report", nil, 404)
}

func TestWireTableLifecycle(t *testing.T) {
	ts := newTestServer(t)

	ts.want("PUT", "/table/jobs", nil, 201)
	ts.want("POST", "/table/jobs/p1/r2", map[string]string{"x-ms-size": "2048"}, 201)
	ts.want("POST", "/table/jobs/p1/r1", map[string]string{"x-ms-size": "1024"}, 201)

	resp, _ := ts.do("POST", "/table/jobs/p1/r1", nil)
	if resp.StatusCode != 409 || resp.Header.Get("x-ms-error-code") != "Conflict" {
		t.Fatalf("duplicate insert: status %d code %q, want 409 Conflict",
			resp.StatusCode, resp.Header.Get("x-ms-error-code"))
	}

	_, body := ts.want("GET", "/table/jobs/p1/r1", nil, 200)
	if body != `{"PartitionKey":"p1","RowKey":"r1","Size":1024}` {
		t.Fatalf("entity JSON = %q", body)
	}

	// Partition query returns the whole partition sorted by RowKey.
	_, body = ts.want("GET", "/table/jobs/p1", nil, 200)
	want := `[{"PartitionKey":"p1","RowKey":"r1","Size":1024},{"PartitionKey":"p1","RowKey":"r2","Size":2048}]`
	if body != want {
		t.Fatalf("partition query = %q\nwant %q", body, want)
	}

	ts.want("PUT", "/table/jobs/p1/r1", map[string]string{"x-ms-size": "4096"}, 204)
	ts.want("DELETE", "/table/jobs/p1/r1", nil, 204)
	ts.want("GET", "/table/jobs/p1/r1", nil, 404)
	ts.want("PUT", "/table/jobs/p1/r1", nil, 404) // update of a deleted row
	ts.want("DELETE", "/table/jobs/p1/r1", nil, 404)
	ts.want("POST", "/table/nosuch/p/r", nil, 404) // missing table
}

func TestWireQueueLifecycle(t *testing.T) {
	ts := newTestServer(t)

	ts.want("PUT", "/queue/tasks", nil, 201)

	_, body := ts.want("POST", "/queue/tasks/messages?size=512", nil, 201)
	if body != xmlHeader+"<QueueMessage><MessageId>1</MessageId></QueueMessage>" {
		t.Fatalf("add body = %q", body)
	}

	// Peek shows the message without a pop receipt.
	_, body = ts.want("GET", "/queue/tasks/messages?peekonly=true", nil, 200)
	if strings.Contains(body, "<PopReceipt>") || !strings.Contains(body, "<MessageId>1</MessageId>") {
		t.Fatalf("peek body = %q", body)
	}

	// Receive hides the message and hands out the receipt.
	resp, body := ts.want("GET", "/queue/tasks/messages?visibilitytimeout=60", nil, 200)
	rcpt := resp.Header.Get("x-ms-popreceipt")
	if rcpt == "" || !strings.Contains(body, "<PopReceipt>"+rcpt+"</PopReceipt>") {
		t.Fatalf("receive: receipt header %q, body %q", rcpt, body)
	}
	if !strings.Contains(body, "<DequeueCount>1</DequeueCount>") {
		t.Fatalf("receive body missing dequeue count: %q", body)
	}

	// Hidden: both peek and a second receive come up empty.
	ts.want("GET", "/queue/tasks/messages?peekonly=true", nil, 404)
	ts.want("GET", "/queue/tasks/messages", nil, 404)

	ts.want("DELETE", "/queue/tasks/messages/"+rcpt, nil, 204)
	ts.want("DELETE", "/queue/tasks/messages/"+rcpt, nil, 404) // already deleted

	// A stale receipt (redelivered message, new token) is a Conflict.
	ts.want("POST", "/queue/tasks/messages?size=16", nil, 201)
	resp, _ = ts.want("GET", "/queue/tasks/messages?visibilitytimeout=60", nil, 200)
	stale := resp.Header.Get("x-ms-popreceipt")
	ts.rt.Do(func() {}) // no-op; engine idle, virtual time frozen below timeout
	// Force redelivery by receiving after the visibility lapses: advance
	// virtual time with an engine-side sleeper.
	ts.rt.Do(func() {
		ts.cloud.Engine.Spawn("advance", func(p *sim.Proc) { p.Sleep(2 * time.Minute) })
	})
	resp, _ = ts.want("GET", "/queue/tasks/messages?visibilitytimeout=60", nil, 200)
	fresh := resp.Header.Get("x-ms-popreceipt")
	if fresh == stale {
		t.Fatalf("receipt unchanged across redelivery: %q", fresh)
	}
	resp, _ = ts.do("DELETE", "/queue/tasks/messages/"+stale, nil)
	if resp.StatusCode != 409 || resp.Header.Get("x-ms-error-code") != "Conflict" {
		t.Fatalf("stale delete: status %d code %q, want 409 Conflict",
			resp.StatusCode, resp.Header.Get("x-ms-error-code"))
	}

	ts.want("DELETE", "/queue/tasks/messages/garbage", nil, 400)
	ts.want("GET", "/queue/nosuch/messages", nil, 404)
}

// TestWireErrorEnvelopeAllCodes drives every storerr code through the
// facade's real error path and pins the status from storerr.Class and the
// envelope bytes exactly.
func TestWireErrorEnvelopeAllCodes(t *testing.T) {
	ts := newTestServer(t)
	codes := []storerr.Code{
		storerr.CodeTimeout, storerr.CodeServerBusy, storerr.CodeBlobExists,
		storerr.CodeNotFound, storerr.CodeConflict, storerr.CodeCorruptRead,
		storerr.CodeConnection, storerr.CodeInternal,
		storerr.Code("SomeFutureCode"), // unknown codes pass through at 500
	}
	for _, code := range codes {
		t.Run(string(code), func(t *testing.T) {
			cl := storerr.Class(code)
			resp, body := ts.do("GET", "/control/echoerr?code="+string(code), nil)
			if resp.StatusCode != cl.Status {
				t.Fatalf("status %d, want %d", resp.StatusCode, cl.Status)
			}
			if got := resp.Header.Get("x-ms-error-code"); got != cl.Wire {
				t.Fatalf("x-ms-error-code %q, want %q", got, cl.Wire)
			}
			want := ErrorXML(cl.Wire, synthErr(string(code)).Error())
			if body != want {
				t.Fatalf("envelope:\n got %q\nwant %q", body, want)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/xml" {
				t.Fatalf("Content-Type %q", ct)
			}
		})
	}
}

// TestWireOrganicErrors produces each reachable error end to end — real
// service failures surfacing through the wire, not synthesized envelopes.
func TestWireOrganicErrors(t *testing.T) {
	ts := newTestServer(t)
	ts.want("PUT", "/data", nil, 201)
	ts.want("PUT", "/data/blob", map[string]string{"x-ms-size": "4096"}, 201)

	cases := []struct {
		name       string
		faults     string // query for /control/faults, "" for none
		method     string
		path       string
		wantStatus int
		wantCode   string
	}{
		{"not found", "", "GET", "/data/missing", 404, "ResourceNotFound"},
		{"server busy", "service=blob&busy=1", "GET", "/data/blob", 503, "ServerBusy"},
		{"connection failure", "service=blob&conn=1", "GET", "/data/blob", 500, "ConnectionFailure"},
		{"read failure", "service=blob&read=1", "GET", "/data/blob", 500, "OperationTimedOut"},
		{"corrupt read", "service=blob&corrupt=1", "GET", "/data/blob", 500, "CorruptRead"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.faults != "" {
				ts.want("POST", "/control/faults?"+tc.faults, nil, 204)
				defer ts.want("POST", "/control/faults?service=blob&reset=1", nil, 204)
			}
			resp, body := ts.do(tc.method, tc.path, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %q)", resp.StatusCode, tc.wantStatus, body)
			}
			if got := resp.Header.Get("x-ms-error-code"); got != tc.wantCode {
				t.Fatalf("x-ms-error-code %q, want %q", got, tc.wantCode)
			}
			if !strings.Contains(body, "<Code>"+tc.wantCode+"</Code>") {
				t.Fatalf("envelope missing <Code>%s</Code>: %q", tc.wantCode, body)
			}
		})
	}

	// Unknown fault target is rejected.
	ts.want("POST", "/control/faults?service=nosuch&busy=1", nil, 400)
}

// TestWireMgmtLRO exercises the 202 + poll flow over HTTP (free-run: the
// operation completes during the drain, so the poll shows Succeeded) and
// the facade-level InProgress state under a non-draining gate.
func TestWireMgmtLRO(t *testing.T) {
	ts := newTestServer(t)

	resp, _ := ts.want("POST", "/management/deployments?name=app&role=worker&size=small&instances=2", nil, 202)
	opURL := resp.Header.Get("Location")
	if opURL == "" || resp.Header.Get("x-ms-request-id") == "" {
		t.Fatalf("202 missing Location/x-ms-request-id: %v", resp.Header)
	}
	_, body := ts.want("GET", opURL, nil, 200)
	if !strings.Contains(body, "<Status>Succeeded</Status>") {
		t.Fatalf("deploy operation: %q", body)
	}

	// Add, suspend, delete — each its own pollable operation.
	for _, step := range []struct{ method, path string }{
		{"POST", "/management/deployments/app/add?count=2"},
		{"POST", "/management/deployments/app/suspend"},
		{"DELETE", "/management/deployments/app"},
	} {
		resp, _ := ts.want(step.method, step.path, nil, 202)
		_, body := ts.want("GET", resp.Header.Get("Location"), nil, 200)
		if !strings.Contains(body, "<Status>Succeeded</Status>") {
			t.Fatalf("%s %s operation: %q", step.method, step.path, body)
		}
	}

	// Deleted: lifecycle calls on the name are prompt 404s.
	ts.want("POST", "/management/deployments/app/suspend", nil, 404)
	// Duplicate create of a live deployment is a prompt 409.
	ts.want("POST", "/management/deployments?name=again&role=worker&size=small&instances=1", nil, 202)
	ts.want("POST", "/management/deployments?name=again&role=worker&size=small&instances=1", nil, 409)

	ts.want("GET", "/operations/op-999", nil, 404)
	ts.want("GET", "/healthz", nil, 200)
}

// TestWireMgmtInProgress observes the InProgress state with a non-draining
// inline gate: the 202 lands before the engine runs a single event.
func TestWireMgmtInProgress(t *testing.T) {
	cloud := azure.NewCloud(azure.Config{Seed: testSeed})
	f := New(cloud, NewInlineGate(cloud.Engine, false))

	var res wireResult
	f.start(parseOp("POST", "/management/deployments?name=d&role=worker&size=small&instances=1", 0, ""),
		func(r wireResult) { res = r })
	if res.status != 202 || res.reqID == "" {
		t.Fatalf("deploy result %+v, want 202 with request id", res)
	}
	o, ok := f.mgmt.snapshot(res.reqID)
	if !ok || o.status != "InProgress" {
		t.Fatalf("operation before drain: %+v ok=%v, want InProgress", o, ok)
	}
	cloud.Engine.Run()
	o, _ = f.mgmt.snapshot(res.reqID)
	if o.status != "Succeeded" {
		t.Fatalf("operation after drain: %+v, want Succeeded", o)
	}
	if xml := operationXML(o); !strings.Contains(xml, "<Status>Succeeded</Status>") {
		t.Fatalf("operation XML: %q", xml)
	}
}

// TestWirePacedSmoke serves one instant and one latent request through a
// paced gate: virtual time tracks the wall clock, so the blob GET's virtual
// latency plays out across ticks.
func TestWirePacedSmoke(t *testing.T) {
	cloud := azure.NewCloud(azure.Config{Seed: testSeed})
	rt := sim.NewRealTime(cloud.Engine, sim.Paced)
	rt.SetTick(time.Millisecond)
	f := New(cloud, rt)
	srv := httptest.NewServer(f)
	go rt.Serve()
	defer func() {
		srv.Close()
		rt.Close()
	}()

	for _, step := range []struct {
		method, path string
		header       map[string]string
		want         int
	}{
		{"PUT", "/c", nil, 201},
		{"PUT", "/c/b", map[string]string{"x-ms-size": "1024"}, 201},
		{"GET", "/c/b", nil, 200},
	} {
		req, _ := http.NewRequest(step.method, srv.URL+step.path, nil)
		for k, v := range step.header {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", step.method, step.path, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != step.want {
			t.Fatalf("%s %s: status %d, want %d", step.method, step.path, resp.StatusCode, step.want)
		}
	}
}

// TestWireRecordedSessionReplays is the record/replay acceptance at the
// HTTP level: a live free-run session is recorded, then replayed on a fresh
// cloud with the same seed, and every request must resolve to the same
// status, code and size.
func TestWireRecordedSessionReplays(t *testing.T) {
	ts := newTestServer(t)
	rec := NewRecorder()
	ts.rt.Do(func() { ts.f.SetRecorder(rec) })

	type obs struct {
		status int
		code   string
		size   int64
	}
	var live []obs
	issue := func(method, path string, header map[string]string) {
		resp, body := ts.do(method, path, header)
		live = append(live, obs{resp.StatusCode, resp.Header.Get("x-ms-error-code"), int64(len(body))})
	}

	issue("PUT", "/logs", nil)
	issue("PUT", "/logs/day1", map[string]string{"x-ms-size": "65536"})
	issue("GET", "/logs/day1", nil)
	issue("HEAD", "/logs/day1", nil)
	issue("GET", "/logs/missing", nil)
	issue("PUT", "/queue/work", nil)
	issue("POST", "/queue/work/messages?size=256", nil)
	issue("GET", "/queue/work/messages?visibilitytimeout=30", nil)
	issue("PUT", "/table/t", nil)
	issue("POST", "/table/t/pk/rk", map[string]string{"x-ms-size": "512"})
	issue("GET", "/table/t/pk", nil)

	var arrivals []Arrival
	ts.rt.Do(func() { arrivals = rec.Arrivals() })
	if len(arrivals) != len(live) {
		t.Fatalf("recorded %d arrivals for %d requests", len(arrivals), len(live))
	}

	trace := Replay(azure.Config{Seed: testSeed}, arrivals)
	for i, e := range trace {
		// Sizes compare only for successful body-carrying responses: HEAD
		// strips the body on the live side, and error envelopes are not
		// part of the replay trace (the status+code is).
		wantSize := live[i].size
		if arrivals[i].Method == "HEAD" || e.Code != "" {
			wantSize = e.Size
		}
		if e.Status != live[i].status || e.Code != live[i].code || e.Size != wantSize {
			t.Errorf("request %d (%s %s): replay (%d,%q,%d) vs live (%d,%q,%d)",
				i, arrivals[i].Method, arrivals[i].URI,
				e.Status, e.Code, e.Size, live[i].status, live[i].code, wantSize)
		}
	}

	// The recorded session replays identically a second time.
	if h1, h2 := TraceHash(trace), TraceHash(Replay(azure.Config{Seed: testSeed}, arrivals)); h1 != h2 {
		t.Fatalf("replay hashes diverge: %#x vs %#x", h1, h2)
	}
}

// TestWireBadRequests pins the facade-level 400 paths.
func TestWireBadRequests(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct{ method, path string }{
		{"PATCH", "/c/b"},
		{"POST", "/table/t"},
		{"GET", "/"},
		{"POST", "/management/deployments?role=martian&name=x"},
		{"POST", "/management/deployments"}, // no name
		{"GET", "/control/echoerr"},         // no code
	} {
		resp, _ := ts.do(tc.method, tc.path, nil)
		if resp.StatusCode != 400 {
			t.Errorf("%s %s: status %d, want 400", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestWireReplaySameInstantArrivals pins Replay's ordering against the live
// free-running gate. The gate drains the engine before it admits the next
// request, so a blob GET that arrives at the instant its PUT completes runs
// after that completion; a replay that scheduled every arrival up front ran
// the GET first, on another pooled connection with other random streams,
// and diverged. Two keep-alive clients loop PUT→GET on their own blobs, so
// the recording is full of arrivals that share an instant with a pending
// completion; every replayed status must equal the live one.
func TestWireReplaySameInstantArrivals(t *testing.T) {
	ts := newTestServer(t)
	rec := NewRecorder()
	ts.rt.Do(func() { ts.f.SetRecorder(rec) })

	const clients, iters = 2, 60
	type obs struct {
		status int
		code   string
	}
	live := make([]map[string]obs, clients)
	done := make(chan struct{}, clients)
	for k := 0; k < clients; k++ {
		ts.want("PUT", fmt.Sprintf("/c%d", k), nil, 201)
		live[k] = make(map[string]obs)
	}
	for k := 0; k < clients; k++ {
		go func(k int) {
			defer func() { done <- struct{}{} }()
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			for i := 0; i < iters; i++ {
				uri := fmt.Sprintf("/c%d/b%d", k, i)
				for _, method := range []string{"PUT", "GET"} {
					req, err := http.NewRequest(method, ts.srv.URL+uri, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if method == "PUT" {
						req.Header.Set("x-ms-size", strconv.Itoa(512+97*i))
					}
					resp, err := hc.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					live[k][method+" "+uri] = obs{resp.StatusCode, resp.Header.Get("x-ms-error-code")}
				}
			}
		}(k)
	}
	for k := 0; k < clients; k++ {
		<-done
	}

	var arrivals []Arrival
	ts.rt.Do(func() { arrivals = rec.Arrivals() })
	trace := Replay(azure.Config{Seed: testSeed}, arrivals)
	checked := 0
	for i, e := range trace {
		ar := arrivals[i]
		path, _, _ := strings.Cut(ar.URI, "?")
		var k int
		if _, err := fmt.Sscanf(path, "/c%d", &k); err != nil || !strings.Contains(path, "/b") {
			continue // container set-up
		}
		want, ok := live[k][ar.Method+" "+path]
		if !ok {
			t.Fatalf("arrival %d (%s %s) has no live response", i, ar.Method, ar.URI)
		}
		checked++
		if e.Status != want.status || e.Code != want.code {
			t.Errorf("arrival %d (%s %s at %v): replay (%d,%q) vs live (%d,%q)",
				i, ar.Method, ar.URI, ar.At, e.Status, e.Code, want.status, want.code)
		}
	}
	if checked != clients*iters*2 {
		t.Fatalf("checked %d replayed requests, want %d", checked, clients*iters*2)
	}
}
