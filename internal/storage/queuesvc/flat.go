package queuesvc

import (
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/station"
	"azureobs/internal/storage/storerr"
)

// qop selects which queue operation a flat request runs.
type qop int

const (
	qAdd qop = iota
	qPeek
	qReceive
	qDelete
)

// ReqFlat is caller-owned flat-mode state for the queue ops: the blocking
// bodies compiled into continuations on the caller's actor. The queue
// service runs every client through one service-level pipeline, so each
// flat client owns a ReqFlat (one outstanding request at a time) and reuses
// it for every op it ever issues.
//
// Stage order replicates the blocking twins verbatim: admission (the queue
// pipeline has no request-latency stage, so no wake is scheduled there),
// the op's station visit, then the op body at the visit's end — Receive
// selects and hides its message in that same atomic instant, before the
// payload download, exactly as the blocking form does, so flat and blocking
// consumers never race differently for the same message.
type ReqFlat struct {
	svc *Service
	a   *sim.Actor
	c   reqpath.CtxFlat

	op         qop
	q          *Queue
	body       string
	size       int
	visibility time.Duration
	m          *Message
	rcpt       Receipt

	// visiting is the station whose visit is in progress (between
	// BeginVisit and EndVisit), nil otherwise; Abort detaches from it.
	visiting *station.Station

	addDone  func(id uint64, err error)
	peekDone func(msg *Message, ok bool, err error)
	recvDone func(msg *Message, rcpt Receipt, ok bool, err error)
	delDone  func(err error)

	afterVisit    func() // cached: runs when the station visit's sleep ends
	afterDownload func() // cached: runs when the payload download ends
}

// NewReqFlat builds flat request state against the service.
func (s *Service) NewReqFlat() *ReqFlat {
	r := &ReqFlat{svc: s}
	r.afterVisit = r.visited
	r.afterDownload = r.downloaded
	return r
}

// Init prepares an embedded (zero-value) ReqFlat in place.
func (r *ReqFlat) Init(s *Service) {
	if r.svc != nil {
		panic("queuesvc: ReqFlat initialised twice")
	}
	r.svc = s
	r.afterVisit = r.visited
	r.afterDownload = r.downloaded
}

// BeginAdd issues one flat Add on actor a, as Add; done receives the new
// message's id.
func (r *ReqFlat) BeginAdd(a *sim.Actor, q *Queue, body string, size int, done func(id uint64, err error)) {
	r.addDone = done
	if size < len(body) {
		size = len(body)
	}
	r.q, r.body, r.size = q, body, size
	if !r.begin(a, qAdd, "queue.Add") {
		return
	}
	r.visit(r.svc.add, r.c.UploadCost(size))
}

// BeginPeek issues one flat Peek on actor a, as Peek: ok=false with a nil
// error when no message is visible.
func (r *ReqFlat) BeginPeek(a *sim.Actor, q *Queue, done func(msg *Message, ok bool, err error)) {
	r.peekDone = done
	r.q = q
	if !r.begin(a, qPeek, "queue.Peek") {
		return
	}
	r.visit(r.svc.peek, 0)
}

// BeginReceive issues one flat Receive on actor a, as Receive (visibility
// zero means the service default; values above MaxVisibility clamp).
func (r *ReqFlat) BeginReceive(a *sim.Actor, q *Queue, visibility time.Duration, done func(msg *Message, rcpt Receipt, ok bool, err error)) {
	r.recvDone = done
	if visibility <= 0 {
		visibility = r.svc.cfg.DefaultVisibility
	}
	if visibility > r.svc.cfg.MaxVisibility {
		visibility = r.svc.cfg.MaxVisibility
	}
	r.q, r.visibility = q, visibility
	if !r.begin(a, qReceive, "queue.Receive") {
		return
	}
	r.visit(r.svc.receive, 0)
}

// BeginDelete issues one flat Delete on actor a, as Delete.
func (r *ReqFlat) BeginDelete(a *sim.Actor, q *Queue, rcpt Receipt, done func(err error)) {
	r.delDone = done
	r.q, r.rcpt = q, rcpt
	if !r.begin(a, qDelete, "queue.Delete") {
		return
	}
	r.visit(r.svc.del, 0)
}

// begin runs admission; it reports whether the request is still alive.
func (r *ReqFlat) begin(a *sim.Actor, op qop, name string) bool {
	if r.a != nil {
		panic("queuesvc: ReqFlat already has a request in flight")
	}
	r.a, r.op = a, op
	r.c.Begin(r.svc.pl, name, a.Now())
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

// visit starts the op's station visit and sleeps its service time.
func (r *ReqFlat) visit(st *station.Station, extra time.Duration) {
	r.visiting = st
	r.a.Sleep(st.BeginVisit(extra), r.afterVisit)
}

func (r *ReqFlat) visited() {
	s, q, now := r.svc, r.q, r.a.Now()
	r.visiting = nil
	switch r.op {
	case qAdd:
		s.add.EndVisit()
		q.nextID++
		m := &Message{ID: q.nextID, Body: r.body, Size: r.size, Inserted: now}
		m.elem = q.msgs.PushBack(m)
		q.byID[m.ID] = m
		r.m = m
		r.finish(nil)
	case qPeek:
		s.peek.EndVisit()
		m := q.firstVisible(now)
		if m == nil {
			r.finish(nil)
			return
		}
		r.m = m
		r.a.Sleep(r.c.DownloadCost(m.Size), r.afterDownload)
	case qReceive:
		s.receive.EndVisit()
		m := q.firstVisible(now)
		if m == nil {
			r.finish(nil)
			return
		}
		m.visibleAt = now + r.visibility
		m.Dequeues++
		q.nextReceipt++
		m.receipt = q.nextReceipt
		r.m, r.rcpt = m, Receipt{MsgID: m.ID, token: q.nextReceipt}
		r.a.Sleep(r.c.DownloadCost(m.Size), r.afterDownload)
	case qDelete:
		s.del.EndVisit()
		m, ok := q.byID[r.rcpt.MsgID]
		if !ok || m.deleted {
			r.finish(r.c.Failf(storerr.CodeNotFound, "message %d", r.rcpt.MsgID))
			return
		}
		if m.receipt != r.rcpt.token {
			r.finish(r.c.Failf(storerr.CodeConflict, "stale receipt for message %d", m.ID))
			return
		}
		m.deleted = true
		q.msgs.Remove(m.elem)
		delete(q.byID, m.ID)
		r.finish(nil)
	}
}

func (r *ReqFlat) downloaded() { r.finish(nil) }

// Abort drops the request in flight, if any — the unwind of an actor killed
// mid-request. It undoes what a killed blocking op's deferred calls undo: a
// station visit in progress loses its client (no op is counted), and
// nothing else happens — no hook sees the request and no callback runs,
// since a killed Do never reaches either. A message a killed Receive already
// hid stays hidden until its visibility window lapses, as in the blocking
// form.
func (r *ReqFlat) Abort() {
	if r.visiting != nil {
		r.visiting.Detach()
		r.visiting = nil
	}
	r.clear()
}

// clear resets the in-flight state.
func (r *ReqFlat) clear() {
	r.a, r.q, r.m = nil, nil, nil
	r.body, r.rcpt = "", Receipt{}
	r.addDone, r.peekDone, r.recvDone, r.delDone = nil, nil, nil, nil
}

func (r *ReqFlat) finish(err error) {
	op, m, rcpt := r.op, r.m, r.rcpt
	addDone, peekDone, recvDone, delDone := r.addDone, r.peekDone, r.recvDone, r.delDone
	r.c.Finish(r.a.Now(), err)
	// Clear the in-flight state before the callback so the continuation can
	// issue the next op immediately.
	r.clear()
	switch op {
	case qAdd:
		var id uint64
		if err == nil && m != nil {
			id = m.ID
		}
		addDone(id, err)
	case qPeek:
		if err != nil {
			m = nil
		}
		peekDone(m, m != nil, err)
	case qReceive:
		if err != nil {
			m, rcpt = nil, Receipt{}
		}
		recvDone(m, rcpt, m != nil, err)
	case qDelete:
		delDone(err)
	}
}
