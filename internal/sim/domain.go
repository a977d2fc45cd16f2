package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Domains couples N engines — domains — into one parallel simulation with a
// deterministic schedule. Each domain owns everything a standalone Engine
// owns: its own 4-ary calendar, sequence counter, event free list and
// parked-worker pool, so every existing subsystem (netsim fabrics, storage
// services, whole azure clouds) binds to a domain exactly as it binds to an
// engine today, with zero API churn.
//
// Execution proceeds in rounds. In each round every domain runs its own
// kernel loop, either to drain (window 0, the default) or through the
// half-open virtual-time window [·, T+W) set by SetWindow — domain 0 inline
// on the coordinator goroutine, domains 1..N-1 on persistent round workers
// that live for one Run or RunUntil call (see roundCrew); a generation
// barrier then merges the round deterministically: cross-domain sends
// queued during the round are delivered as events at the boundary time,
// ordered by source domain index first and per-domain send order (which is
// per-domain seq order) second. Two runs of the same program therefore
// produce identical traces regardless of how the host schedules the round
// workers — the same bit-identical guarantee the cell scheduler
// (internal/core/sched) gives across experiment cells, pushed down into a
// single cell.
//
// The determinism argument, in full:
//
//  1. Within a round, a domain is an ordinary Engine run: one goroutine at
//     a time, (time, seq) total order. Deterministic by the kernel's own
//     contract.
//  2. Domains share no simulation state. The only cross-domain channel is
//     the boundary mailbox, which a domain appends to during its round
//     (only its own kernel goroutine writes its queue) and the coordinator
//     reads strictly after the round barrier.
//  3. The mailbox flush order — (source domain index, send order) — and
//     the delivery time — the round's boundary — are pure functions of
//     simulation state, not of host scheduling. Delivered mail consumes
//     destination sequence numbers in that fixed order.
//  4. Window boundaries are pure functions of simulation state too: the
//     grid anchors at virtual time zero, and the skip-ahead that jumps
//     empty windows depends only on calendar contents.
//
// Boundary-queued delivery means cross-domain latency quantizes up to the
// window: a send lands at the end of the window it was issued in, never
// mid-window. Workloads built from disjoint client↔service pairs (the
// experiment cells core shards onto domains) need no mail at all; the
// mailbox is the growth hook for coupled topologies, which pick W as their
// cross-domain latency floor.
type Domains struct {
	members []*Engine
	window  time.Duration

	// Adaptive window state (SetAdaptiveWindow): the coordinator doubles or
	// halves window between rounds to steer per-round fired-event counts
	// toward adaptTarget. Fired counts are deterministic simulation state,
	// so the boundary sequence stays reproducible.
	adaptive           bool
	adaptMin, adaptMax time.Duration
	adaptTarget        uint64

	// mail[src] is the boundary mailbox of domain src: appended only by
	// src's kernel goroutine during a round, flushed only by the
	// coordinator after the round barrier.
	mail [][]mailMsg

	// batch[dst] is the pooled per-destination delivery batch: the
	// coordinator gathers a boundary's mail for dst into it (in the
	// (source domain, send order) merge order) and schedules one event —
	// batchFn[dst] — that runs the batch and truncates it for reuse.
	// armed[dst] reports that such an event is pending; gathering into an
	// armed batch is safe (the pending event delivers appended entries at
	// the same clamped instant, in order) and covers the corner where a
	// destination's clock outran the boundary so its batch event has not
	// fired yet. The slices recycle across rounds like the event free
	// list, capped at maxMailSliceCap entries.
	batch   [][]func()
	armed   []bool
	batchFn []func()

	// labelCtx[i] carries domain i's precomputed pprof label set. Each
	// round goroutine installs it once per run (the coordinator, which runs
	// member 0, takes domain 0's); proc worker goroutines its kernel spawns
	// inherit it, so CPU profiles attribute samples to domains.
	labelCtx []context.Context

	// crew is the current run's persistent round workers (nil outside a
	// run and for a single-domain group).
	crew *roundCrew

	rounds    int
	delivered uint64
	busy      []time.Duration
	wall      time.Duration
	panics    []any
	running   bool
}

// maxMailSliceCap bounds the capacity retained by recycled mail queues and
// delivery batches, mirroring the event free-list cap: a one-off mail burst
// should not pin its high-water backing array forever.
const maxMailSliceCap = 1 << 16

// mailMsg is one queued cross-domain send.
type mailMsg struct {
	dst int
	fn  func()
}

// NewDomains creates a group of n fresh engines. n must be at least 1; a
// single-domain group degenerates to the plain serial kernel loop, which is
// what keeps the one-domain path byte-identical to a standalone engine.
func NewDomains(n int) *Domains {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewDomains(%d): need at least one domain", n))
	}
	d := &Domains{
		members:  make([]*Engine, n),
		mail:     make([][]mailMsg, n),
		batch:    make([][]func(), n),
		armed:    make([]bool, n),
		batchFn:  make([]func(), n),
		labelCtx: make([]context.Context, n),
		busy:     make([]time.Duration, n),
		panics:   make([]any, n),
	}
	for i := range d.members {
		e := NewEngine()
		e.group = d
		e.domIndex = i
		d.members[i] = e
		dst := i
		d.batchFn[i] = func() { d.deliverBatch(dst) }
		d.labelCtx[i] = pprof.WithLabels(context.Background(), pprof.Labels("domain", strconv.Itoa(i)))
	}
	return d
}

// N returns the number of domains in the group.
func (d *Domains) N() int { return len(d.members) }

// Domain returns the i'th member engine. Build each domain's simulated
// world on its engine exactly as on a standalone one.
func (d *Domains) Domain(i int) *Engine { return d.members[i] }

// SetWindow sets the virtual-time window width for subsequent Run calls.
// Zero (the default) runs every round to drain — the right choice when
// domains exchange no mail, since it needs exactly one round. A positive
// window bounds how far any domain runs ahead of the others, which bounds
// cross-domain mail latency to one window.
func (d *Domains) SetWindow(w time.Duration) {
	if w < 0 {
		panic("sim: negative domain window")
	}
	if d.running {
		panic("sim: SetWindow during Domains.Run")
	}
	d.window = w
	d.adaptive = false
}

// SetAdaptiveWindow makes the window self-tuning: it starts at min and,
// between rounds, doubles whenever the round fired fewer than half of
// targetEvents (barrier overhead dominates — widen) and halves whenever it
// fired more than twice targetEvents (cross-domain mail latency quantizes
// up to the window — narrow), clamped to [min, max]. Skip-ahead over empty
// windows is preserved. The adjustment reads only fired-event counts, which
// are deterministic simulation state, so the boundary sequence — and with
// it every trace — remains bit-identical run to run and across domain
// widths.
func (d *Domains) SetAdaptiveWindow(min, max time.Duration, targetEvents int) {
	if d.running {
		panic("sim: SetAdaptiveWindow during Domains.Run")
	}
	if min <= 0 || max < min || targetEvents < 1 {
		panic(fmt.Sprintf("sim: SetAdaptiveWindow(%v, %v, %d): need 0 < min ≤ max and target ≥ 1",
			min, max, targetEvents))
	}
	d.window = min
	d.adaptive = true
	d.adaptMin, d.adaptMax = min, max
	d.adaptTarget = uint64(targetEvents)
}

// Window returns the current window width (0 = run-to-drain rounds). Under
// SetAdaptiveWindow it reports the width the next round will use.
func (d *Domains) Window() time.Duration { return d.window }

// adaptWindow applies the adaptive-window rule after a bounded round that
// fired delta events group-wide.
func (d *Domains) adaptWindow(delta uint64) {
	if !d.adaptive {
		return
	}
	switch {
	case delta < d.adaptTarget/2 && d.window < d.adaptMax:
		if d.window *= 2; d.window > d.adaptMax {
			d.window = d.adaptMax
		}
	case delta > d.adaptTarget*2 && d.window > d.adaptMin:
		if d.window /= 2; d.window < d.adaptMin {
			d.window = d.adaptMin
		}
	}
}

// Now returns the latest virtual time any domain has reached.
func (d *Domains) Now() time.Duration { return d.maxNow() }

// EventsFired returns the total events executed across all domains.
func (d *Domains) EventsFired() uint64 {
	var n uint64
	for _, m := range d.members {
		n += m.fired
	}
	return n
}

// Pending returns the total live pending events across all domains.
func (d *Domains) Pending() int {
	n := 0
	for _, m := range d.members {
		n += m.Pending()
	}
	return n
}

// Drained reports whether every domain has fully quiesced (see
// Engine.Drained) and no boundary mail is waiting.
func (d *Domains) Drained() bool {
	for _, m := range d.members {
		if !m.Drained() {
			return false
		}
	}
	return !d.mailQueued()
}

// Rounds returns the number of coordinator rounds Run has executed.
func (d *Domains) Rounds() int { return d.rounds }

// MailDelivered returns the number of boundary mailbox events delivered.
func (d *Domains) MailDelivered() uint64 { return d.delivered }

// DomainIndex returns the engine's index within its Domains group, or 0
// for a standalone engine.
func (e *Engine) DomainIndex() int { return e.domIndex }

// Send queues fn for delivery to domain dst of this engine's group. The
// callback runs as an event on dst's engine at the next window boundary
// (with window 0: when every domain has drained its current round), after
// all of dst's own events of the round. Sends merge deterministically:
// source domain index first, then per-source send order. Send panics on an
// engine that is not part of a Domains group.
func (e *Engine) Send(dst int, fn func()) {
	if e.group == nil {
		panic("sim: Send from an engine outside a Domains group")
	}
	e.group.send(e.domIndex, dst, fn)
}

func (d *Domains) send(src, dst int, fn func()) {
	if dst < 0 || dst >= len(d.members) {
		panic(fmt.Sprintf("sim: Send to domain %d of a %d-domain group", dst, len(d.members)))
	}
	if fn == nil {
		panic("sim: Send with nil callback")
	}
	d.mail[src] = append(d.mail[src], mailMsg{dst: dst, fn: fn})
}

// Run executes the group until every domain drains and no boundary mail
// remains. Panics raised inside any domain (including process panics, which
// each member kernel re-raises on its round goroutine) are re-raised here
// after the round barrier; when several domains panic in one round, the
// lowest domain index wins — deterministically.
func (d *Domains) Run() {
	defer d.enter("Run")()

	bounded := d.window > 0
	// Window grid origin is virtual time zero: boundaries land on multiples
	// of the window regardless of how far setup runs advanced the clocks.
	var t time.Duration
	for {
		if !d.anyRunnable() && !d.mailQueued() {
			break
		}
		var limit time.Duration
		if bounded {
			// Skip empty windows: jump the grid to the last boundary at or
			// before the earliest pending event. Calendar contents are
			// deterministic, so the boundary sequence is too.
			if next, ok := d.earliestPending(); ok && next >= t+d.window {
				t += (next - t) / d.window * d.window
			}
			limit = t + d.window
			t = limit
		}
		d.rounds++
		before := d.EventsFired()
		d.runRound(bounded, limit)
		if pv := d.takePanic(); pv != nil {
			panic(pv)
		}
		boundary := limit
		if !bounded {
			boundary = d.maxNow()
		}
		d.flushMail(boundary)
		if bounded {
			d.adaptWindow(d.EventsFired() - before)
		}
	}
}

// RunUntil executes the group in bounded rounds until virtual time reaches
// deadline — the windowed counterpart of Engine.RunUntil for horizon-bounded
// workloads (a campaign that runs for N days rather than to drain). Events
// scheduled exactly at the deadline do fire, matching Engine.RunUntil, and
// every member clock is advanced to the deadline on return. Mail queued in
// the final round (or addressed past the horizon) stays queued: the horizon
// cut it off exactly as it cuts off pending events. RunUntil requires a
// positive window — SetWindow or SetAdaptiveWindow first — because an
// unbounded round could run arbitrarily far past the deadline.
func (d *Domains) RunUntil(deadline time.Duration) {
	if d.window <= 0 {
		panic("sim: Domains.RunUntil needs a window — call SetWindow or SetAdaptiveWindow first")
	}
	defer d.enter("RunUntil")()

	// runWindow's limit is exclusive, so the last round runs to deadline+1:
	// events at exactly the deadline fire, later ones do not.
	end := deadline + 1
	var t time.Duration
	for t < end {
		if !d.anyRunnable() && !d.mailQueued() {
			break
		}
		if next, ok := d.earliestPending(); ok && next >= t+d.window {
			t += (next - t) / d.window * d.window
			if t >= end {
				break // every remaining event lies past the deadline
			}
		}
		limit := t + d.window
		if limit > end {
			limit = end
		}
		t = limit
		d.rounds++
		before := d.EventsFired()
		d.runRound(true, limit)
		if pv := d.takePanic(); pv != nil {
			panic(pv)
		}
		if limit < end {
			d.flushMail(limit)
		}
		d.adaptWindow(d.EventsFired() - before)
	}
	for _, m := range d.members {
		if m.now < deadline {
			m.now = deadline
		}
	}
}

// enter begins a Run or RunUntil: it marks the group and its members
// running, labels the coordinator goroutine as domain 0 and starts the round
// crew. The returned func — deferred by the caller, so it also runs when a
// domain panic unwinds the run — joins the crew, clears the coordinator's
// label (as pprof.Do(context.Background(), …) would), books wall time and
// retires parked proc workers.
func (d *Domains) enter(what string) func() {
	if d.running {
		panic("sim: Domains." + what + " reentered")
	}
	for _, m := range d.members {
		if m.running {
			panic("sim: Domains." + what + " with a member engine already running")
		}
		m.stopped = false
	}
	d.running = true
	start := time.Now()
	pprof.SetGoroutineLabels(d.labelCtx[0])
	if len(d.members) > 1 {
		d.crew = d.startCrew()
	}
	return func() {
		if d.crew != nil {
			d.crew.stop()
			d.crew = nil
		}
		pprof.SetGoroutineLabels(context.Background())
		d.wall += time.Since(start)
		d.running = false
		for _, m := range d.members {
			m.releaseIdleWorkers()
		}
	}
}

// runRound executes one window (or drain) round: member 0 inline on the
// coordinator goroutine, members 1..N-1 on the Run's persistent round workers,
// with a full barrier before the coordinator touches any shared state again.
// A single-domain group has no crew — it is exactly the serial kernel loop.
func (d *Domains) runRound(bounded bool, limit time.Duration) {
	c := d.crew
	if c == nil {
		d.roundOn(d.members[0], bounded, limit)
		return
	}
	c.bounded, c.limit = bounded, limit
	c.pending.Store(int32(len(d.members) - 1))
	c.release()
	d.roundOn(d.members[0], bounded, limit)
	c.wait()
}

// roundOn runs one domain's share of a round, capturing any panic in the
// domain's slot (each round goroutine writes only its own index) for the
// coordinator to re-raise deterministically after the barrier. The calling
// goroutine already carries the domain's pprof label (see roundCrew).
func (d *Domains) roundOn(m *Engine, bounded bool, limit time.Duration) {
	t0 := time.Now()
	defer func() {
		d.busy[m.domIndex] += time.Since(t0)
		m.running = false
		if r := recover(); r != nil {
			d.panics[m.domIndex] = r
		}
	}()
	m.running = true
	if bounded {
		m.runWindow(limit)
	} else {
		m.runToDrain()
	}
}

// crewSpin bounds how many times either side of the round barrier polls
// (yielding its P with runtime.Gosched between polls) before parking on its
// wake channel. Rounds are tens of microseconds, so a short spin catches the
// common case without a channel handoff; the bound keeps an idle side from
// burning a CPU — on a GOMAXPROCS=1 host, the only one — when the other
// side's round is long.
const crewSpin = 256

// roundCrew is the persistent worker set of one Run or RunUntil call: one
// goroutine per member 1..N-1, started on entry and joined before return,
// so a round costs two barrier crossings instead of N goroutine spawns.
//
// The barrier is two atomics. The coordinator publishes a round's
// parameters, stores pending = N-1 and bumps gen to g; each worker runs its
// member when it observes g and decrements pending; the coordinator, after
// running member 0 inline, waits for pending to reach zero. Either waiting
// side spins crewSpin times and then parks: it stores the generation it
// waits on in its park flag, re-checks the condition, and blocks on its
// one-slot wake channel. The waking side clears the flag with a
// compare-and-swap against that same generation and sends a token only
// when the swap succeeds, so every park is matched by exactly one token and
// no wake-up is lost: a parker that finds the condition already met after
// setting its flag either reclaims the flag or, when the waker won the
// swap, drains the token it is owed. The generation tag matters because
// the two sides overlap: a worker that saw round g by spinning can finish
// it and park for g+1 before the coordinator's release loop for g reaches
// it, and the last worker of round g can still be between its decrement
// and its swap when the coordinator parks for g+1.
type roundCrew struct {
	d  *Domains
	wg sync.WaitGroup

	// Round parameters: written by the coordinator before gen is bumped,
	// read by workers after they observe the bump.
	bounded bool
	limit   time.Duration
	quit    bool

	gen     atomic.Uint64
	pending atomic.Int32

	parked []atomic.Uint64 // parked[i] = g: worker i waits on wake[i] for round g
	wake   []chan struct{} // one-slot wake tokens, per worker
	idle   atomic.Uint64   // = g: the coordinator waits on done for round g
	done   chan struct{}   // one-slot round-complete token
}

// startCrew launches the round workers for members 1..N-1. Each sets its
// domain's pprof label once; proc worker goroutines its kernel spawns
// inherit it.
func (d *Domains) startCrew() *roundCrew {
	n := len(d.members)
	c := &roundCrew{
		d:      d,
		parked: make([]atomic.Uint64, n),
		wake:   make([]chan struct{}, n),
		done:   make(chan struct{}, 1),
	}
	c.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		c.wake[i] = make(chan struct{}, 1)
		go c.work(i)
	}
	return c
}

// work is round worker i's loop: wait for a round, run member i's share,
// report completion. A kernel that leaves its goroutine without returning
// (runtime.Goexit from a callback) is reported as that domain's panic, so
// the coordinator fails the run instead of waiting on a vanished worker.
func (c *roundCrew) work(i int) {
	var g uint64
	exited := true
	defer func() {
		if exited {
			c.d.panics[i] = fmt.Sprintf("sim: domain %d round goroutine exited via runtime.Goexit", i)
			c.finish(g)
		}
		c.wg.Done()
	}()
	pprof.SetGoroutineLabels(c.d.labelCtx[i])
	m := c.d.members[i]
	for {
		g++
		c.await(i, g)
		if c.quit {
			exited = false
			return
		}
		c.d.roundOn(m, c.bounded, c.limit)
		c.finish(g)
	}
}

// await blocks worker i until the coordinator releases round g.
func (c *roundCrew) await(i int, g uint64) {
	for spin := 0; spin < crewSpin; spin++ {
		if c.gen.Load() >= g {
			return
		}
		runtime.Gosched()
	}
	c.parked[i].Store(g)
	if c.gen.Load() >= g {
		if !c.parked[i].CompareAndSwap(g, 0) {
			<-c.wake[i] // the coordinator claimed the flag; take its token
		}
		return
	}
	<-c.wake[i]
}

// release starts a round (or, with quit set, ends the workers): bump gen and
// hand a token to every worker parked on the new round.
func (c *roundCrew) release() {
	g := c.gen.Add(1)
	for i := 1; i < len(c.wake); i++ {
		if c.parked[i].CompareAndSwap(g, 0) {
			c.wake[i] <- struct{}{}
		}
	}
}

// finish reports one worker's share of round g complete; the last one wakes
// a coordinator parked on that round.
func (c *roundCrew) finish(g uint64) {
	if c.pending.Add(-1) == 0 && c.idle.CompareAndSwap(g, 0) {
		c.done <- struct{}{}
	}
}

// wait blocks the coordinator until every worker has finished the current
// round. Outside a round pending is already zero and wait returns at once.
func (c *roundCrew) wait() {
	for spin := 0; spin < crewSpin; spin++ {
		if c.pending.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	g := c.gen.Load()
	c.idle.Store(g)
	if c.pending.Load() == 0 {
		if !c.idle.CompareAndSwap(g, 0) {
			<-c.done
		}
		return
	}
	<-c.done
}

// stop ends the crew: it lets any round still in flight finish (the
// coordinator can unwind mid-round when member 0's kernel exits its
// goroutine), releases the workers with quit set and joins them.
func (c *roundCrew) stop() {
	c.wait()
	c.quit = true
	c.release()
	c.wg.Wait()
}

// runWindow fires the engine's events with time strictly before limit — the
// half-open window [·, limit) of one coordinator round; an event at exactly
// the boundary belongs to the next window. Unlike RunUntil it neither
// advances the clock to the boundary (a domain's clock sits at its last
// fired event; boundary mail is scheduled at the boundary regardless) nor
// fires daemon-only tails: exactly as in Run, events fire only while
// foreground work remains.
func (e *Engine) runWindow(limit time.Duration) {
	for !e.stopped {
		if e.foreground == 0 && e.procs == 0 && e.flats == 0 {
			return
		}
		if len(e.events) == 0 {
			return
		}
		next := e.events[0]
		if next.ev.canceled {
			e.heapPop()
			e.dead--
			if next.ev.reclaim {
				e.recycle(next.ev)
			}
			continue
		}
		if next.at >= limit {
			return
		}
		e.Step()
	}
}

// runnable reports whether the engine would fire at least one more event
// given an unbounded window: foreground work, plus — for parked processes
// and actors, which hold no event of their own — a live event somewhere to
// move the world forward. A domain with live processes but an empty (or
// corpse-only) calendar is stuck, exactly like a leaked process under Run,
// and must not keep the coordinator looping.
func (e *Engine) runnable() bool {
	if e.stopped {
		return false
	}
	if e.foreground > 0 {
		return true
	}
	return (e.procs > 0 || e.flats > 0) && e.Pending() > 0
}

func (d *Domains) anyRunnable() bool {
	for _, m := range d.members {
		if m.runnable() {
			return true
		}
	}
	return false
}

func (d *Domains) mailQueued() bool {
	for _, q := range d.mail {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

func (d *Domains) maxNow() time.Duration {
	var t time.Duration
	for _, m := range d.members {
		if m.now > t {
			t = m.now
		}
	}
	return t
}

// earliestPending returns the smallest calendar-root time across domains.
// Corpses (canceled entries) count: a corpse's time can only pick an
// earlier window — at worst one extra empty round — and corpse state is as
// deterministic as live state, so the boundary sequence stays reproducible.
func (d *Domains) earliestPending() (time.Duration, bool) {
	var best time.Duration
	ok := false
	for _, m := range d.members {
		if len(m.events) == 0 {
			continue
		}
		if at := m.events[0].at; !ok || at < best {
			best, ok = at, true
		}
	}
	return best, ok
}

// flushMail delivers every queued cross-domain send at the boundary time,
// iterating sources in domain-index order and each source's queue in send
// order — the deterministic merge. Rather than one event per message, the
// merge gathers each destination's mail into its pooled batch and schedules
// a single batch event per destination: the batch runs its callbacks in the
// merge order and bumps the destination's fired count by the message count,
// so EventsFired stays per-message (width-invariant for workloads whose
// message count is) and the only observable change versus per-message
// events is one heap push instead of n.
func (d *Domains) flushMail(boundary time.Duration) {
	for src := range d.mail {
		msgs := d.mail[src]
		if len(msgs) == 0 {
			continue
		}
		for i := range msgs {
			d.batch[msgs[i].dst] = append(d.batch[msgs[i].dst], msgs[i].fn)
			msgs[i] = mailMsg{} // corpse discipline: queues retain nothing
			d.delivered++
		}
		if cap(msgs) > maxMailSliceCap {
			d.mail[src] = nil
		} else {
			d.mail[src] = msgs[:0]
		}
	}
	for dst := range d.batch {
		if len(d.batch[dst]) == 0 || d.armed[dst] {
			// Armed: the destination's pending batch event has not fired
			// (its clock outran a lagging boundary, or it stopped). The
			// entries just appended ride along — same delivery instant,
			// merge order preserved.
			continue
		}
		m := d.members[dst]
		at := boundary
		if at < m.now {
			// A drained domain's clock can sit past a lagging window
			// boundary; deliver at its present instead of its past. The
			// clamp is itself deterministic: member clocks are.
			at = m.now
		}
		d.armed[dst] = true
		m.Schedule(at, d.batchFn[dst])
	}
}

// deliverBatch is the body of a destination's batch event: run the gathered
// callbacks in merge order and recycle the batch slice. It executes on the
// destination's kernel goroutine; the coordinator only touches the batch
// between rounds, on the far side of the round barrier.
func (d *Domains) deliverBatch(dst int) {
	d.armed[dst] = false
	b := d.batch[dst]
	m := d.members[dst]
	// Step counted the batch event once; count the rest of the messages so
	// EventsFired matches per-message delivery exactly.
	m.fired += uint64(len(b) - 1)
	for i := range b {
		fn := b[i]
		b[i] = nil
		fn()
	}
	if cap(b) > maxMailSliceCap {
		d.batch[dst] = nil
	} else {
		d.batch[dst] = b[:0]
	}
}

// takePanic collects the round's captured panics and returns the one to
// re-raise: lowest domain index first. All slots are cleared.
func (d *Domains) takePanic() any {
	var pv any
	for i := range d.panics {
		if pv == nil && d.panics[i] != nil {
			pv = d.panics[i]
		}
		d.panics[i] = nil
	}
	return pv
}

// DomainStats is the coordinator's accounting for one group.
type DomainStats struct {
	Domains int // group width
	// Requested is the width the caller asked for — greater than Domains
	// when a layer above clamped the ask (geo clamps to its region count,
	// modis to its shard count). Stats fills it with the actual width; the
	// clamping layer overwrites it so reports can surface the cap instead
	// of letting it pass silently.
	Requested int
	Rounds    int           // coordinator rounds executed
	Mail      uint64        // boundary mailbox events delivered
	Busy      time.Duration // summed in-round execution time across domains
	Wall      time.Duration // total Run wall time

	// PerDomainBusy is each domain's summed in-round time; the spread shows
	// whether speedup is bounded by load imbalance across domains.
	PerDomainBusy []time.Duration
}

// Utilization is the fraction of the group's domain-seconds spent running
// kernels: Busy / (Domains × Wall). A perfectly balanced, mail-free group
// scores near 1; low values mean domains idled at round barriers.
func (s DomainStats) Utilization() float64 {
	if s.Wall <= 0 || s.Domains < 1 {
		return 0
	}
	return s.Busy.Seconds() / (float64(s.Domains) * s.Wall.Seconds())
}

// Stats returns a snapshot of the group's accounting.
func (d *Domains) Stats() DomainStats {
	s := DomainStats{
		Domains:       len(d.members),
		Requested:     len(d.members),
		Rounds:        d.rounds,
		Mail:          d.delivered,
		Wall:          d.wall,
		PerDomainBusy: append([]time.Duration(nil), d.busy...),
	}
	for _, b := range d.busy {
		s.Busy += b
	}
	return s
}

// DomainAccum sums coordinator stats across many Domains groups. An
// experiment that shards its cells into per-batch groups adds each group's
// stats here; Add is safe from concurrent scheduler workers. Read the
// totals only after the runs complete.
type DomainAccum struct {
	mu     sync.Mutex
	Groups int
	Rounds int
	Mail   uint64
	Width  int // widest group seen
	// Clamped counts groups that ran narrower than their caller asked
	// (Requested > Domains) — bench reports surface it; no silent caps.
	Clamped int
	Busy    time.Duration
	Wall    time.Duration
}

// Add folds one group's stats into the accumulator.
func (a *DomainAccum) Add(s DomainStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.Groups++
	a.Rounds += s.Rounds
	a.Mail += s.Mail
	if s.Domains > a.Width {
		a.Width = s.Domains
	}
	if s.Requested > s.Domains {
		a.Clamped++
	}
	a.Busy += s.Busy
	a.Wall += s.Wall
}

// Utilization is summed busy domain-seconds over width × summed group wall
// seconds. Tail batches narrower than the widest group (and groups run
// concurrently by the cell scheduler) make this a lower bound on true
// per-group utilization, which is the conservative direction for a bench
// report.
func (a *DomainAccum) Utilization() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.Wall <= 0 || a.Width < 1 {
		return 0
	}
	return a.Busy.Seconds() / (float64(a.Width) * a.Wall.Seconds())
}
