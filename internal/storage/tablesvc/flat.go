package tablesvc

import (
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/station"
	"azureobs/internal/storage/storerr"
)

// GetFlat is caller-owned flat-mode state for table Get requests: the Get
// body compiled into continuations on the caller's actor. Unlike blob
// sessions, the table service runs every client through one service-level
// pipeline, so the in-flight state cannot live on the service — each flat
// client owns a GetFlat (one outstanding request at a time) and reuses it
// for every query it ever issues; steady-state requests allocate nothing.
//
// Stage order replicates Get verbatim: admission (outage → conn-fail →
// server-busy; the table pipeline has no request-latency stage, so no wake
// is scheduled there), partition lookup, the query-station visit with the
// response's download cost added, the not-found reply, hook delivery, then
// done at the instant Get would have returned.
type GetFlat struct {
	svc *Service
	a   *sim.Actor
	c   reqpath.CtxFlat

	table, pk, rk string
	ent           *Entity
	done          func(*Entity, error)

	afterVisit func() // cached: runs when the station visit's sleep ends
}

// NewGetFlat builds flat Get state against the service; done receives every
// request's outcome.
func (s *Service) NewGetFlat(done func(*Entity, error)) *GetFlat {
	r := &GetFlat{svc: s, done: done}
	r.afterVisit = r.visited
	return r
}

// Init prepares an embedded (zero-value) GetFlat in place — the allocation-
// free alternative to NewGetFlat for callers that inline the state in a
// larger per-client struct.
func (r *GetFlat) Init(s *Service, done func(*Entity, error)) {
	if r.svc != nil {
		panic("tablesvc: GetFlat initialised twice")
	}
	r.svc = s
	r.done = done
	r.afterVisit = r.visited
}

// Begin issues one flat Get on actor a. A second Begin before done fires
// panics — the state holds one request.
func (r *GetFlat) Begin(a *sim.Actor, table, pk, rk string) {
	if r.a != nil {
		panic("tablesvc: GetFlat already has a request in flight")
	}
	r.a, r.table, r.pk, r.rk = a, table, pk, rk
	r.c.Begin(r.svc.pl, "table.Query", a.Now())
	// The table pipeline has no latency stage: AdmitPre never asks for a
	// sleep, so admission runs straight through, as Do's admit would.
	if _, _, err := r.c.AdmitPre(); err != nil {
		r.finish(err)
		return
	}
	if err := r.c.AdmitPost(); err != nil {
		r.finish(err)
		return
	}
	part := r.svc.partition(table, pk)
	if part == nil {
		r.finish(r.c.Failf(storerr.CodeNotFound, "table %s", table))
		return
	}
	e, ok := part[rk]
	var respSize int
	if ok {
		respSize = e.Size()
	}
	r.ent = e
	r.a.Sleep(r.svc.query.BeginVisit(r.c.DownloadCost(respSize)), r.afterVisit)
}

func (r *GetFlat) visited() {
	r.svc.query.EndVisit()
	if r.ent == nil {
		r.finish(r.c.Failf(storerr.CodeNotFound, "%s/%s", r.pk, r.rk))
		return
	}
	r.finish(nil)
}

func (r *GetFlat) finish(err error) {
	ent := r.ent
	if err != nil {
		ent = nil
	}
	r.c.Finish(r.a.Now(), err)
	// Clear the in-flight state before the callback so the continuation can
	// issue the next query immediately.
	r.a, r.ent = nil, nil
	r.done(ent, err)
}

// wop selects which write-class table operation a WriteFlat runs.
type wop int

const (
	wInsert wop = iota
	wUpdate
	wDelete
)

// WriteFlat is caller-owned flat-mode state for the write-class table ops
// (Insert, Update, Delete): the blocking bodies compiled into continuations
// on the caller's actor. One request may be in flight at a time; the state
// is reused for every write the owner ever issues.
//
// Stage order replicates the blocking twins verbatim, including the
// ingest-overload model: admission → partition lookup → overload draw (a
// hit burns ServerTimeout, counts a service timeout, and replies
// OperationTimedOut without visiting the station) → station visit → the
// conflict/not-found check → mutation → hook delivery → done.
type WriteFlat struct {
	svc *Service
	a   *sim.Actor
	c   reqpath.CtxFlat

	op     wop
	table  string
	ent    *Entity // insert/update payload
	pk, rk string  // delete target
	part   map[string]*Entity
	st     *station.Station
	rho    float64 // overload diagnostic for the timeout reply
	done   func(error)

	afterVisit   func() // cached: runs when the station visit's sleep ends
	afterTimeout func() // cached: runs when the overload burn ends
}

// NewWriteFlat builds flat write state against the service; done receives
// every request's outcome.
func (s *Service) NewWriteFlat(done func(error)) *WriteFlat {
	r := &WriteFlat{svc: s, done: done}
	r.afterVisit = r.visited
	r.afterTimeout = r.timedOut
	return r
}

// Init prepares an embedded (zero-value) WriteFlat in place.
func (r *WriteFlat) Init(s *Service, done func(error)) {
	if r.svc != nil {
		panic("tablesvc: WriteFlat initialised twice")
	}
	r.svc = s
	r.done = done
	r.afterVisit = r.visited
	r.afterTimeout = r.timedOut
}

// BeginInsert issues one flat Insert on actor a, as Insert.
func (r *WriteFlat) BeginInsert(a *sim.Actor, table string, e *Entity) {
	r.op, r.table, r.ent = wInsert, table, e
	if !r.begin(a, "table.Insert") {
		return
	}
	if r.part = r.svc.partition(table, e.PartitionKey); r.part == nil {
		r.finish(r.c.Failf(storerr.CodeNotFound, "table %s", table))
		return
	}
	r.st = r.svc.insert
	if r.overload(e.Size()) {
		return
	}
	r.a.Sleep(r.st.BeginVisit(r.c.UploadCost(e.Size())), r.afterVisit)
}

// BeginUpdate issues one flat Update on actor a, as Update. Updates have no
// overload stage: the paper's hot-entity contention is the station's.
func (r *WriteFlat) BeginUpdate(a *sim.Actor, table string, e *Entity) {
	r.op, r.table, r.ent = wUpdate, table, e
	if !r.begin(a, "table.Update") {
		return
	}
	if r.part = r.svc.partition(table, e.PartitionKey); r.part == nil {
		r.finish(r.c.Failf(storerr.CodeNotFound, "table %s", table))
		return
	}
	r.st = r.svc.update
	r.a.Sleep(r.st.BeginVisit(r.c.UploadCost(e.Size())), r.afterVisit)
}

// BeginDelete issues one flat Delete on actor a, as Delete.
func (r *WriteFlat) BeginDelete(a *sim.Actor, table, pk, rk string) {
	r.op, r.table, r.pk, r.rk = wDelete, table, pk, rk
	if !r.begin(a, "table.Delete") {
		return
	}
	if r.part = r.svc.partition(table, pk); r.part == nil {
		r.finish(r.c.Failf(storerr.CodeNotFound, "table %s", table))
		return
	}
	size := 0
	if e, ok := r.part[rk]; ok {
		size = e.Size()
	}
	r.st = r.svc.delete
	if r.overload(size) {
		return
	}
	r.a.Sleep(r.st.BeginVisit(0), r.afterVisit)
}

// begin runs admission; it reports whether the request is still alive. The
// table pipeline has no latency stage, so admission never schedules a wake.
func (r *WriteFlat) begin(a *sim.Actor, op string) bool {
	if r.a != nil {
		panic("tablesvc: WriteFlat already has a request in flight")
	}
	r.a = a
	r.c.Begin(r.svc.pl, op, a.Now())
	if _, _, err := r.c.AdmitPre(); err != nil {
		r.finish(err)
		return false
	}
	if err := r.c.AdmitPost(); err != nil {
		r.finish(err)
		return false
	}
	return true
}

// overload runs the flat split of overloaded: the same draw from the same
// timeout stream, then the ServerTimeout burn armed on the actor. It
// reports whether the request took the timeout path.
func (r *WriteFlat) overload(size int) bool {
	prob, rho := r.svc.overloadProb(r.st, size)
	if prob <= 0 || !r.c.TimeoutHit(prob) {
		return false
	}
	r.rho = rho
	r.a.Sleep(r.c.ServerTimeout(), r.afterTimeout)
	return true
}

func (r *WriteFlat) timedOut() {
	// The blocking path counts the timeout after the burn, on return from
	// TimeoutFault — mirror that here so Timeouts() agrees mid-run.
	r.svc.timeouts++
	r.finish(r.c.TimeoutErrf("partition ingest overloaded (rho=%.2f)", r.rho))
}

func (r *WriteFlat) visited() {
	r.st.EndVisit()
	switch r.op {
	case wInsert:
		if _, exists := r.part[r.ent.RowKey]; exists {
			r.finish(r.c.Failf(storerr.CodeConflict, "%s/%s exists", r.ent.PartitionKey, r.ent.RowKey))
			return
		}
		r.part[r.ent.RowKey] = r.ent
	case wUpdate:
		if _, ok := r.part[r.ent.RowKey]; !ok {
			r.finish(r.c.Failf(storerr.CodeNotFound, "%s/%s", r.ent.PartitionKey, r.ent.RowKey))
			return
		}
		r.part[r.ent.RowKey] = r.ent
	case wDelete:
		if _, ok := r.part[r.rk]; !ok {
			r.finish(r.c.Failf(storerr.CodeNotFound, "%s/%s", r.pk, r.rk))
			return
		}
		delete(r.part, r.rk)
	}
	r.finish(nil)
}

func (r *WriteFlat) finish(err error) {
	r.c.Finish(r.a.Now(), err)
	// Clear the in-flight state before the callback so the continuation can
	// issue the next write immediately.
	r.a, r.ent, r.part, r.st = nil, nil, nil, nil
	r.done(err)
}

// QueryFlat is caller-owned flat-mode state for property-filter partition
// scans, the flat twin of QueryFilter. One request may be in flight at a
// time.
//
// Stage order replicates QueryFilter verbatim: admission → partition lookup
// → scan registration → a zero-length yield (so a burst of simultaneous
// scans registers before any member prices its cost) → the lognormal scan
// draw → either the ServerTimeout burn and an OperationTimedOut reply, or
// the scan sleep and collection. Both paths return matches in ascending
// RowKey order, so no response leaks Go's randomised map order.
type QueryFlat struct {
	svc *Service
	a   *sim.Actor
	c   reqpath.CtxFlat

	table, pk string
	pred      func(*Entity) bool
	part      map[string]*Entity
	done      func([]*Entity, error)

	afterYield   func() // cached: runs after the registration yield
	afterScan    func() // cached: runs when the scan sleep ends
	afterTimeout func() // cached: runs when the timeout burn ends
}

// NewQueryFlat builds flat scan state against the service; done receives
// every request's outcome (entities in ascending RowKey order).
func (s *Service) NewQueryFlat(done func([]*Entity, error)) *QueryFlat {
	r := &QueryFlat{svc: s, done: done}
	r.afterYield = r.yielded
	r.afterScan = r.scanned
	r.afterTimeout = r.timedOut
	return r
}

// Init prepares an embedded (zero-value) QueryFlat in place.
func (r *QueryFlat) Init(s *Service, done func([]*Entity, error)) {
	if r.svc != nil {
		panic("tablesvc: QueryFlat initialised twice")
	}
	r.svc = s
	r.done = done
	r.afterYield = r.yielded
	r.afterScan = r.scanned
	r.afterTimeout = r.timedOut
}

// Begin issues one flat scan on actor a. A nil pred matches every entity —
// the whole-partition query the wire facade serves.
func (r *QueryFlat) Begin(a *sim.Actor, table, pk string, pred func(*Entity) bool) {
	if r.a != nil {
		panic("tablesvc: QueryFlat already has a request in flight")
	}
	r.a, r.table, r.pk, r.pred = a, table, pk, pred
	r.c.Begin(r.svc.pl, "table.QueryFilter", a.Now())
	if _, _, err := r.c.AdmitPre(); err != nil {
		r.finish(nil, err)
		return
	}
	if err := r.c.AdmitPost(); err != nil {
		r.finish(nil, err)
		return
	}
	if r.part = r.svc.partition(table, pk); r.part == nil {
		r.finish(nil, r.c.Failf(storerr.CodeNotFound, "table %s", table))
		return
	}
	r.svc.scans++
	// The flat spelling of P.Yield(): one zero-length event, same seq cost.
	a.Sleep(0, r.afterYield)
}

func (r *QueryFlat) yielded() {
	s := r.svc
	mean := float64(len(r.part)) * s.cfg.ScanSecPerEntity * (1 + float64(s.scans)/s.cfg.ScanConcurrencyN0)
	lat := r.c.Sample(simrand.LogNormalMeanCV(mean, s.cfg.ScanCV))
	if lat > s.cfg.ServerTimeout {
		// As QueryFilter: the timeout is counted when the deadline is judged
		// blown, before the burn; the scan stays registered until the burn
		// ends (the deferred scans-- runs after Timeout's sleep).
		s.timeouts++
		r.a.Sleep(r.c.ServerTimeout(), r.afterTimeout)
		return
	}
	r.a.Sleep(lat, r.afterScan)
}

func (r *QueryFlat) timedOut() {
	n := len(r.part)
	r.svc.scans--
	r.finish(nil, r.c.TimeoutErrf("scan of %d entities timed out", n))
}

func (r *QueryFlat) scanned() {
	out := matches(r.part, r.pred)
	r.svc.scans--
	r.finish(out, nil)
}

func (r *QueryFlat) finish(out []*Entity, err error) {
	r.c.Finish(r.a.Now(), err)
	// Clear the in-flight state before the callback so the continuation can
	// issue the next scan immediately.
	r.a, r.part, r.pred = nil, nil, nil
	r.done(out, err)
}
