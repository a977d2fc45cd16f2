package modis

// sharded.go runs the ModisAzure campaign on a sim.Domains group — the
// coupled-workload counterpart of the embarrassingly decomposable fig1/fig2
// sharding. The partition:
//
//   - Domain 0 hosts the coordinator: the portal, the service manager, all
//     Request state, task dispatch and the campaign-level books, on a small
//     dedicated cloud (request table + service queue).
//   - The workload splits into cfg.Shards fixed shards, shard s on domain
//     s mod width. A shard owns a full cloud (fabric with its own
//     degradation stream, storage services), a slice of the worker fleet,
//     its partition of the task queue, and — under chaos — its own fault
//     engine.
//
// Everything that crosses a shard boundary is boundary mail on the group:
// task dispatches outbound, completion/retry/crash notes inbound. Raw mail
// reaches the coordinator in (source domain, send order) — an order that
// depends on the width, since co-located shards share a domain — so the
// coordinator buffers notes in an inbox and drains it in the canonical
// (send time, shard, per-shard seq) order once per boundary. Because the
// window grid is a pure function of simulation state, the set of notes per
// boundary, and with it every dispatch decision, RNG stream, and tallied
// stat, is bit-identical at every domain width. Shard identity (streams,
// cloud seeds, fleet split) keys off the shard index alone, never the
// domain, which is what lets the width be a pure performance knob.
//
// The timeout monitor's kill rule evaluates where the legacy path evaluates
// it — at the executing worker — but its verdicts (VMTimeout retries), like
// all completion traffic, travel to domain 0 as notes, so re-enqueue always
// crosses the window boundary and lands via round-robin on a fresh shard.
//
// The shard side runs on flat actors, not processes: each dispatcher,
// worker (replacement workers too) and fabric re-acquisition is a
// sim.Actor state machine that issues its queue operations through
// queuesvc.ReqFlat under an azure.RetryFlat. The actors schedule kernel
// events where the legacy campaign's process bodies (modis.go) do and draw
// from their streams in the same order, so a shard's trace is the one those
// bodies would produce — TestShardedCampaignPinned holds fingerprints
// recorded from the process form. A host crash kills a worker with
// Actor.Kill, whose unwind replays the process form's deferred repairs
// (DESIGN.md §11).

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/chaos"
	"azureobs/internal/fabric"
	"azureobs/internal/oplog"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/queuesvc"
	"azureobs/internal/storage/storerr"
)

// defaultShards is the fixed shard count: wide enough that the 8-rung bench
// ladder keeps every domain busy, small enough that shard fabrics stay
// cheap. The trace depends on this number, not on the domain width.
const defaultShards = 8

// Coordinator window tuning: the adaptive window starts at the minimum and
// self-tunes toward shardWindowTarget fired events per round, never
// exceeding the maximum (which bounds dispatch/completion mail latency to
// four simulated hours).
const (
	shardWindowMin    = time.Minute
	shardWindowMax    = 4 * time.Hour
	shardWindowTarget = 8192
)

// noteKind tags the shard→coordinator notifications.
type noteKind uint8

const (
	noteFinish noteKind = iota // execution completed or failed terminally
	noteRetry                  // retryable outcome, attempts remain
	noteCrash                  // host crash aborted the execution
	numNoteKinds
)

// taskNote is one shard→coordinator notification. at is the shard's clock
// at send time; (at, shard, seq) is the canonical drain order.
type taskNote struct {
	shard int
	seq   uint64
	at    time.Duration
	task  *Task
	kind  noteKind
}

// shard is one partition of the campaign's workload: a slice of the worker
// fleet on its own cloud, with its own task queue, RNG streams, stats and
// (under chaos) fault engine. Fields mirror the legacy Campaign's
// worker-side state; only this shard's engine goroutine touches them.
// workers holds each slot's current VM, fleet its worker actor (nil between
// a crash and the replacement).
type shard struct {
	camp *Campaign
	idx  int
	eng  *sim.Engine

	cloud *azure.Cloud
	rng   *simrand.RNG
	retry azure.RetryPolicy
	stats *Stats
	log   *oplog.Log

	queue     *taskQueue
	dispatchQ *sim.Queue[*Task]
	workers   []*fabric.VM

	fleet     []*shardWorker
	current   []*Task
	execStart []time.Duration
	vmSlot    map[*fabric.VM]int
	reacqRNG  *simrand.RNG
	respawns  int
	chaos     *chaos.Engine

	// noteSeq stamps outbound notes; sent counts them by kind for the
	// conservation books.
	noteSeq uint64
	sent    [numNoteKinds]uint64
}

// newShardedCampaign assembles the sharded form. cfg already has defaults
// applied and cfg.Domains ≥ 1.
func newShardedCampaign(cfg Config) *Campaign {
	requested := cfg.Domains
	if cfg.Domains > cfg.Shards {
		cfg.Domains = cfg.Shards
	}
	group := sim.NewDomains(cfg.Domains)
	eng0 := group.Domain(0)

	// The coordinator cloud carries only the request table and service
	// queue: a small fabric, no degradation process (no workers run here).
	ccfg := azure.Config{Seed: cfg.Seed, Faults: cfg.StorageFaults}
	ccfg.Fabric = fabric.Config{Hosts: 8, HostsPerRack: 4}
	cloud := azure.NewCloudOn(eng0, ccfg)

	c := &Campaign{
		cfg:              cfg,
		cloud:            cloud,
		rng:              simrand.New(cfg.Seed).Fork("modis"),
		Stats:            newCampaignStats(cfg.Days),
		Log:              oplog.New(256),
		Analyzer:         oplog.NewTaxonomyAnalyzer(string(OutcomeVMTimeout)),
		group:            group,
		requestedDomains: requested,
	}
	c.retry = azure.DefaultRetryPolicy().WithJitter(0.5, c.rng.Fork("retry"))
	c.Log.Subscribe(c.Analyzer.Sink())
	cloud.Table.CreateTable("modis-requests")
	c.reqQueue = cloud.Queue.CreateQueue("modis-requests")
	c.reqTokens = sim.NewQueue[*Request]()

	dcfg := modisDegradation()
	if cfg.Degradation != nil {
		dcfg = *cfg.Degradation
	}
	var ch *chaos.Config
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		cc := *cfg.Chaos
		if cc.Horizon == 0 {
			cc.Horizon = time.Duration(cfg.Days) * 24 * time.Hour
		}
		ch = &cc
	}

	c.shards = make([]*shard, cfg.Shards)
	for s := range c.shards {
		c.shards[s] = c.newShard(s, dcfg, ch)
	}
	return c
}

// newShard builds shard s. Everything about the shard — cloud seed, RNG
// roots, fleet slice — keys off s, so the shard's trace is invariant under
// the domain width.
func (c *Campaign) newShard(s int, dcfg fabric.DegradationConfig, ch *chaos.Config) *shard {
	cfg := c.cfg
	eng := c.group.Domain(s % c.group.N())

	scfg := azure.Config{Seed: cfg.Seed + uint64(s+1)*7919, Faults: cfg.StorageFaults}
	scfg.Fabric = fabric.Config{Hosts: 64, HostsPerRack: 16, Degradation: true}
	shardDeg := dcfg
	scfg.Fabric.DegradationConfig = &shardDeg
	cloud := azure.NewCloudOn(eng, scfg)

	// Fleet split: Workers/Shards each, the remainder spread from shard 0.
	n := cfg.Workers / cfg.Shards
	if s < cfg.Workers%cfg.Shards {
		n++
	}

	root := c.rng.ForkDomain(s)
	sh := &shard{
		camp:      c,
		idx:       s,
		eng:       eng,
		cloud:     cloud,
		rng:       root,
		retry:     azure.DefaultRetryPolicy().WithJitter(0.5, root.Fork("retry")),
		stats:     newCampaignStats(cfg.Days),
		log:       oplog.New(256),
		dispatchQ: sim.NewQueue[*Task](),
		workers:   cloud.Controller.ReadyFleet(n, fabric.Worker, fabric.Small),
	}
	sh.queue = &taskQueue{
		cloud:  cloud,
		q:      cloud.Queue.CreateQueue("modis-tasks"),
		tokens: sim.NewQueue[uint64](),
		tasks:  make(map[uint64]*Task),
	}
	if ch != nil {
		scc := *ch
		if s != 0 {
			// Scripted (deterministic, host-addressed) events land on
			// shard 0; the stochastic processes run on every shard, each
			// from its own label-forked stream.
			scc.Script = nil
		}
		sh.chaos = chaos.New(cloud, simrand.New(cfg.Seed).Fork("chaos").ForkDomain(s), scc)
		sh.reacqRNG = root.Fork("reacquire")
	}
	return sh
}

// runSharded executes the sharded campaign for its horizon.
func (c *Campaign) runSharded() *Stats {
	eng0 := c.group.Domain(0)
	eng0.Spawn("portal", c.portal)
	eng0.SpawnDaemon("service-manager", c.serviceManager)
	for _, sh := range c.shards {
		sh.start()
	}
	c.group.SetAdaptiveWindow(shardWindowMin, shardWindowMax, shardWindowTarget)
	c.group.RunUntil(time.Duration(c.cfg.Days) * 24 * time.Hour)
	c.mergeShardStats()
	c.checkShardedConservation()
	if c.cfg.DomainStats != nil {
		c.cfg.DomainStats.Add(c.DomainStats())
	}
	c.group.Teardown()
	return c.Stats
}

// start launches the shard's actors on its engine: the dispatcher daemon
// (mail → real queue), the worker fleet, and the chaos engine.
func (sh *shard) start() {
	sh.startDispatcher()
	sh.fleet = make([]*shardWorker, len(sh.workers))
	sh.current = make([]*Task, len(sh.workers))
	sh.execStart = make([]time.Duration, len(sh.workers))
	for i, vm := range sh.workers {
		sh.fleet[i] = sh.startWorker(fmt.Sprintf("shard%d/worker%d", sh.idx, i), vm, i, sh.rng.ForkN("worker", i))
	}
	if sh.chaos != nil {
		sh.vmSlot = make(map[*fabric.VM]int, len(sh.workers))
		for i, vm := range sh.workers {
			sh.vmSlot[vm] = i
		}
		sh.cloud.DC.OnHostDown(sh.onHostDown)
		sh.chaos.Start()
	}
}

// dispatchTask routes a task to the next shard in round-robin order and
// mails it across the window boundary. Coordinator kernel context only; the
// dispatch counter advances in coordinator event order, which the canonical
// inbox drain keeps width-invariant.
func (c *Campaign) dispatchTask(t *Task) {
	sh := c.shards[int(c.dispatchSeq%uint64(len(c.shards)))]
	c.dispatchSeq++
	c.cloud.Engine.Send(sh.eng.DomainIndex(), func() { sh.recvDispatch(t) })
}

// recvDispatch lands a mailed task on the shard (boundary event) and hands
// it to the dispatcher daemon, which owns the storage side of enqueueing.
func (sh *shard) recvDispatch(t *Task) { sh.dispatchQ.Put(t) }

// shardDispatcher drains mailed tasks into the shard's real Azure queue —
// the storage operation the coordinator cannot perform from an event. It is
// the flat form of a loop of dispatchQ.Get and taskQueue.enqueue.
type shardDispatcher struct {
	sim.Actor
	sh    *shard
	req   queuesvc.ReqFlat
	retry azure.RetryFlat

	task *Task  // the task being enqueued
	body string // its queue message body

	// Cached continuations.
	onTask func(*Task)
	addOp  func()
	onAdd  func(uint64, error)
	added  func(error)
}

// startDispatcher builds the shard's dispatcher daemon and starts it.
func (sh *shard) startDispatcher() {
	d := &shardDispatcher{sh: sh}
	d.req.Init(sh.cloud.Queue)
	d.retry.Init(sh.retry)
	d.onTask = d.enqueue
	d.addOp = d.issueAdd
	d.onAdd = d.addResult
	d.added = d.addDone
	d.BindDaemon(sh.eng, fmt.Sprintf("shard%d/dispatcher", sh.idx))
	d.Go(d.next)
}

// next waits for the next mailed task.
func (d *shardDispatcher) next() { d.sh.dispatchQ.GetFlat(&d.Actor, d.onTask) }

// enqueue registers the task and adds its message under the retry policy.
func (d *shardDispatcher) enqueue(t *Task) {
	d.task, d.body = t, strconv.FormatUint(t.ID, 10)
	d.sh.queue.tasks[t.ID] = t
	d.retry.Begin(&d.Actor, d.addOp, d.added)
}

func (d *shardDispatcher) issueAdd() {
	d.req.BeginAdd(&d.Actor, d.sh.queue.q, d.body, 1024, d.onAdd)
}

func (d *shardDispatcher) addResult(_ uint64, err error) { d.retry.Result(err) }

// addDone wakes one worker with a token, or drops a task whose Add failed
// terminally (its stage never drains — the hazard the status tables catch).
func (d *shardDispatcher) addDone(err error) {
	t := d.task
	d.task, d.body = nil, ""
	d.sh.tally("queue.Add", d.retry.Attempts(), err)
	if err != nil {
		delete(d.sh.queue.tasks, t.ID)
	} else {
		d.sh.queue.tokens.Put(t.ID)
	}
	d.next()
}

// sendNote mails a notification to the coordinator. Shard kernel context
// only.
func (sh *shard) sendNote(kind noteKind, t *Task) {
	sh.noteSeq++
	sh.sent[kind]++
	n := taskNote{shard: sh.idx, seq: sh.noteSeq, at: sh.eng.Now(), task: t, kind: kind}
	sh.eng.Send(0, func() { sh.camp.recvNote(n) })
}

// recvNote buffers one boundary arrival and arms the inbox drain at the
// current instant — the same buffer-and-sort discipline the geo layer uses,
// because raw mail order depends on the domain width.
func (c *Campaign) recvNote(n taskNote) {
	c.inbox = append(c.inbox, n)
	if !c.inboxArmed {
		c.inboxArmed = true
		eng := c.cloud.Engine
		eng.Schedule(eng.Now(), c.drainInbox)
	}
}

// drainInbox applies one boundary's notes in the canonical (send time,
// shard, per-shard seq) order — a total order independent of the domain
// width, since the window grid assigns every note to the same boundary at
// every width. Nothing appends to the inbox while it drains: notes only
// arrive as boundary mail, and this boundary's mail has all landed (the
// drain event was scheduled after it, at the same instant).
func (c *Campaign) drainInbox() {
	c.inboxArmed = false
	notes := c.inbox
	c.inbox = c.inbox[:0]
	sort.Slice(notes, func(i, j int) bool {
		if notes[i].at != notes[j].at {
			return notes[i].at < notes[j].at
		}
		if notes[i].shard != notes[j].shard {
			return notes[i].shard < notes[j].shard
		}
		return notes[i].seq < notes[j].seq
	})
	now := c.cloud.Engine.Now()
	for i := range notes {
		n := notes[i]
		notes[i] = taskNote{} // the retained backing array holds no tasks
		c.applied[n.kind]++
		switch n.kind {
		case noteFinish:
			c.applyFinish(now, n.task)
		default: // noteRetry, noteCrash: back through dispatch
			c.dispatchTask(n.task)
		}
	}
}

// applyFinish retires a task at the coordinator — the sharded counterpart
// of finishTask, applied at inbox-drain time.
func (c *Campaign) applyFinish(now time.Duration, task *Task) {
	c.finishes++
	req := task.Request
	req.remaining[task.Type]--
	if req.remaining[task.Type] == 0 {
		c.releaseStageAt(nil, now, req, stageIndex(task.Type)+1)
	}
	req.tasks[task.Type] = nil
}

// tally books one finished storage operation against the shard, as
// Campaign.storageDo does: attempts beyond the first are retries, and a
// terminal error is counted under "op/code".
func (sh *shard) tally(name string, attempts int, err error) {
	if attempts > 1 {
		sh.stats.StorageRetries += uint64(attempts - 1)
	}
	if err != nil {
		sh.stats.StorageErrors.Inc(name+"/"+string(storerr.CodeOf(err)), 1)
	}
}

// shardWorker is one worker of the shard fleet: the flat form of the legacy
// workerLoop — taskQueue.dequeue, tryReceive, execute — pulling tasks until
// the horizon or a host crash kills it. Its continuations are cached at
// start, so a steady-state execution allocates no closures.
type shardWorker struct {
	sim.Actor
	sh   *shard
	vm   *fabric.VM
	slot int
	rng  *simrand.RNG

	req   queuesvc.ReqFlat
	retry azure.RetryFlat

	// tok is the wakeup token being spent and credited whether a kill must
	// put it back (tryReceive's unwind); msg/rcpt/ok hold the last Receive.
	tok      uint64
	credited bool
	msg      *queuesvc.Message
	rcpt     queuesvc.Receipt
	ok       bool

	// The execution in progress.
	task      *Task
	day       int
	threshold time.Duration
	timedOut  bool

	// Cached continuations.
	onToken  func(uint64)
	recvOp   func()
	onRecv   func(*queuesvc.Message, queuesvc.Receipt, bool, error)
	received func(error)
	delOp    func()
	result   func(error)
	deleted  func(error)
	executed func()
	unwindFn func()
}

// startWorker builds a worker for VM vm in slot and starts it.
func (sh *shard) startWorker(name string, vm *fabric.VM, slot int, rng *simrand.RNG) *shardWorker {
	w := &shardWorker{sh: sh, vm: vm, slot: slot, rng: rng}
	w.req.Init(sh.cloud.Queue)
	w.retry.Init(sh.retry)
	w.onToken = w.gotToken
	w.recvOp = w.issueReceive
	w.onRecv = w.recvResult
	w.received = w.receiveDone
	w.delOp = w.issueDelete
	w.result = w.retry.Result
	w.deleted = w.deleteDone
	w.executed = w.executeDone
	w.unwindFn = w.unwind
	w.Bind(sh.eng, name)
	w.Go(w.dequeue)
	return w
}

// dequeue waits for a wakeup token.
func (w *shardWorker) dequeue() { w.sh.queue.tokens.GetFlat(&w.Actor, w.onToken) }

// gotToken starts spending a token on a receive.
func (w *shardWorker) gotToken(tok uint64) {
	w.tok, w.credited = tok, true
	w.receive()
}

func (w *shardWorker) receive() { w.retry.Begin(&w.Actor, w.recvOp, w.received) }

func (w *shardWorker) issueReceive() {
	w.req.BeginReceive(&w.Actor, w.sh.queue.q, 2*time.Hour, w.onRecv)
}

func (w *shardWorker) recvResult(msg *queuesvc.Message, rcpt queuesvc.Receipt, ok bool, err error) {
	w.msg, w.rcpt, w.ok = msg, rcpt, ok
	w.retry.Result(err)
}

// receiveDone deletes the received message, or gives the token up: a failed
// receive strands its message until the visibility backstop, and an empty
// one means the token raced a message already consumed.
func (w *shardWorker) receiveDone(err error) {
	w.sh.tally("queue.Receive", w.retry.Attempts(), err)
	if err != nil || !w.ok {
		w.credited = false
		w.dequeue()
		return
	}
	w.retry.Begin(&w.Actor, w.delOp, w.deleted)
}

func (w *shardWorker) issueDelete() {
	w.req.BeginDelete(&w.Actor, w.sh.queue.q, w.rcpt, w.result)
}

// deleteDone resolves the received message to its task. A failed delete
// means the message reappears after its visibility window — the
// stale-redelivery hazard of Section 5.2 — and a stale redelivery of a task
// that already ran is discarded and the token spent on another receive.
func (w *shardWorker) deleteDone(err error) {
	w.sh.tally("queue.Delete", w.retry.Attempts(), err)
	msg := w.msg
	w.msg = nil
	id, perr := strconv.ParseUint(msg.Body, 10, 64)
	if perr != nil {
		panic(perr)
	}
	b := w.sh.queue
	t, live := b.tasks[id]
	if !live {
		w.receive()
		return
	}
	delete(b.tasks, id)
	w.credited = false
	b.delivered++
	w.execute(t)
}

// execute runs one task execution on the worker's VM — the same model as
// the legacy Campaign.execute, with outcomes tallied in the shard's books
// and the completion/retry verdict mailed to the coordinator instead of
// applied in place.
func (w *shardWorker) execute(task *Task) {
	sh, rng := w.sh, w.rng
	now := w.Now()
	task.Attempts++
	w.task = task
	sh.current[w.slot] = task
	sh.execStart[w.slot] = now
	w.day = int(now / (24 * time.Hour))
	if w.day >= len(sh.stats.DailyExecs) {
		w.day = len(sh.stats.DailyExecs) - 1
	}

	overhead := simrand.Duration(simrand.LogNormalMeanCV(0.4, 0.3), rng)
	noise := simrand.LogNormalMeanCV(1, 0.08).Sample(rng)
	dilated := time.Duration(float64(task.Work) * w.vm.Host.Slowdown() * noise)
	w.threshold = time.Duration(sh.camp.cfg.KillMultiple * float64(task.Work) *
		simrand.Uniform{Lo: sh.camp.cfg.DetectLo, Hi: sh.camp.cfg.DetectHi}.Sample(rng))

	w.timedOut = dilated > w.threshold
	if w.timedOut {
		w.Sleep(w.threshold+overhead, w.executed)
	} else {
		w.Sleep(dilated+overhead, w.executed)
	}
}

// executeDone records the execution's outcome, mails its verdict and goes
// back for the next token.
func (w *shardWorker) executeDone() {
	sh, task, day := w.sh, w.task, w.day
	w.task = nil
	sh.current[w.slot] = nil
	var outcome Outcome
	if w.timedOut {
		outcome = OutcomeVMTimeout
		sh.stats.DailyTimeouts[day]++
		sh.stats.recordKill(w.threshold, !w.vm.Host.Degraded())
	} else {
		outcome = sampleOutcome(task.Type, w.rng)
	}
	if task.lost && sh.chaos != nil && outcome.Completes() {
		sh.chaos.Report().AddWorkRecovered(task.Work)
		task.lost = false
	}
	sh.stats.TaskExecs.Inc(task.Type.String(), 1)
	sh.stats.DailyExecs[day]++
	sh.stats.Outcomes.Inc(string(outcome), 1)
	sev := oplog.Info
	if !outcome.Completes() {
		sev = oplog.Error
	}
	sh.log.Emit(oplog.Record{
		Time:     w.Now(),
		Severity: sev,
		Source:   w.vm.Name,
		Category: task.Type.String(),
		Event:    string(outcome),
		Detail:   fmt.Sprintf("task %d attempt %d", task.ID, task.Attempts),
	})

	switch {
	case outcome.Retryable() && !outcome.Completes() && task.Attempts < sh.camp.cfg.MaxAttempts:
		sh.stats.Retries++
		sh.sendNote(noteRetry, task)
	default:
		// Completions and terminal failures both retire the task at the
		// coordinator (partial products, as in the real system).
		sh.sendNote(noteFinish, task)
	}
	w.dequeue()
}

// unwind is the kill unwind: it undoes what a killed worker process's
// deferred calls undo, innermost first — the station visit in progress
// loses its client, then a token still being spent goes back to the token
// queue so its message reaches another worker. An execution in progress
// needs nothing: the crash handler already re-routed its task.
func (w *shardWorker) unwind() {
	w.req.Abort()
	w.retry.Abort()
	if w.credited {
		w.credited = false
		w.sh.queue.tokens.Put(w.tok)
	}
}

// onHostDown is the shard's crash handler (kernel context, fired inside
// CrashHost): kill the worker, mail the interrupted task back to the
// coordinator for re-enqueue — the cross-domain re-enqueue path — and
// start the fabric re-acquisition of a replacement.
func (sh *shard) onHostDown(_ *fabric.Host, failed []*fabric.VM) {
	for _, vm := range failed {
		slot, ok := sh.vmSlot[vm]
		if !ok {
			continue // not one of ours (or already handled)
		}
		delete(sh.vmSlot, vm)
		if t := sh.current[slot]; t != nil {
			sh.chaos.Report().AddWorkLost(sh.eng.Now() - sh.execStart[slot])
			t.lost = true
			sh.current[slot] = nil
			sh.stats.CrashAborted++
			sh.sendNote(noteCrash, t)
		}
		if w := sh.fleet[slot]; w != nil {
			w.Kill(w.unwindFn)
			sh.fleet[slot] = nil
		}
		sh.respawns++
		r := &reacquisition{sh: sh, slot: slot, gen: sh.respawns}
		r.Bind(sh.eng, fmt.Sprintf("shard%d/reacquire/%d", sh.idx, r.gen))
		r.Go(r.wait)
	}
}

// reacquisition is the fabric re-acquiring a crashed worker's capacity: a
// delay, then a replacement VM and a fresh worker in the same slot.
type reacquisition struct {
	sim.Actor
	sh        *shard
	slot, gen int
}

func (r *reacquisition) wait() {
	r.Sleep(simrand.Duration(simrand.Uniform{
		Lo: (10 * time.Minute).Seconds(), Hi: (45 * time.Minute).Seconds()}, r.sh.reacqRNG), r.replace)
}

func (r *reacquisition) replace() {
	sh := r.sh
	nvm := sh.cloud.Controller.ReplacementVM(fabric.Worker, fabric.Small)
	sh.workers[r.slot] = nvm
	sh.vmSlot[nvm] = r.slot
	sh.stats.ReplacementVMs++
	sh.fleet[r.slot] = sh.startWorker(fmt.Sprintf("shard%d/worker%d/r%d", sh.idx, r.slot, r.gen),
		nvm, r.slot, sh.rng.ForkN("worker-r", r.gen))
	r.Finish()
}

// mergeShardStats folds every shard's books into the coordinator's Stats,
// in shard-index order — fixed by construction, so merged floats accumulate
// in one deterministic order at every width.
func (c *Campaign) mergeShardStats() {
	for _, sh := range c.shards {
		st := sh.stats
		for _, name := range st.TaskExecs.Names() {
			c.Stats.TaskExecs.Inc(name, st.TaskExecs.Get(name))
		}
		for _, name := range st.Outcomes.Names() {
			c.Stats.Outcomes.Inc(name, st.Outcomes.Get(name))
		}
		for _, name := range st.StorageErrors.Names() {
			c.Stats.StorageErrors.Inc(name, st.StorageErrors.Get(name))
		}
		for d := range st.DailyExecs {
			c.Stats.DailyExecs[d] += st.DailyExecs[d]
			c.Stats.DailyTimeouts[d] += st.DailyTimeouts[d]
		}
		c.Stats.Retries += st.Retries
		c.Stats.WastedSeconds += st.WastedSeconds
		c.Stats.FalseKills += st.FalseKills
		c.Stats.StorageRetries += st.StorageRetries
		c.Stats.CrashAborted += st.CrashAborted
		c.Stats.ReplacementVMs += st.ReplacementVMs
	}
}

// checkShardedConservation closes the sharded campaign's books. Per shard:
// every delivered task is accounted for by an execution, a crash abort, or
// a frozen in-flight execution; and every execution or crash abort emitted
// exactly one note. Campaign-wide: the coordinator never applies more notes
// of a kind than the shards sent — the difference is mail the horizon froze
// in transit.
func (c *Campaign) checkShardedConservation() {
	inv := c.cloud.Engine.Invariants()
	if inv == nil {
		return
	}
	var sent [numNoteKinds]uint64
	for _, sh := range c.shards {
		var inFlight uint64
		for _, t := range sh.current {
			if t != nil {
				inFlight++
			}
		}
		execs := sh.stats.TotalExecs()
		inv.Checkf(sh.queue.delivered == execs+sh.stats.CrashAborted+inFlight,
			"shard %d task conservation: %d delivered != %d executions + %d crash-aborted + %d in flight",
			sh.idx, sh.queue.delivered, execs, sh.stats.CrashAborted, inFlight)
		inv.Checkf(sh.sent[noteFinish]+sh.sent[noteRetry] == execs,
			"shard %d note conservation: %d finish + %d retry notes != %d executions",
			sh.idx, sh.sent[noteFinish], sh.sent[noteRetry], execs)
		inv.Checkf(sh.sent[noteCrash] == sh.stats.CrashAborted,
			"shard %d crash-note conservation: %d crash notes != %d crash-aborted",
			sh.idx, sh.sent[noteCrash], sh.stats.CrashAborted)
		for k := range sent {
			sent[k] += sh.sent[k]
		}
	}
	for k := range sent {
		inv.Checkf(c.applied[k] <= sent[k],
			"note conservation: kind %d applied %d > sent %d", k, c.applied[k], sent[k])
	}
	inv.Checkf(c.finishes == c.applied[noteFinish],
		"finish bookkeeping: %d finishes != %d applied finish notes",
		c.finishes, c.applied[noteFinish])
}
