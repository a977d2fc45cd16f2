package modis

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/chaos"
	"azureobs/internal/fabric"
	"azureobs/internal/metrics"
	"azureobs/internal/oplog"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/queuesvc"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

// Config parameterises a ModisAzure campaign. Zero fields take the
// paper-scale defaults (Feb-Sep 2010: 242 days, ~200 workers, ~3.05M task
// executions).
type Config struct {
	Seed    uint64
	Days    int
	Workers int

	// MeanRequestGap is the mean portal inter-arrival time.
	MeanRequestGap time.Duration
	// MeanTasksPerRequest is the mean reprojection task count per request;
	// the other stages scale from it (see stage ratios below).
	MeanTasksPerRequest float64

	// KillMultiple is the timeout monitor threshold in multiples of the
	// task type's mean execution time (paper: 4x; effective kill happened
	// at 4.5-6x due to detection latency, modelled by DetectLo/Hi).
	KillMultiple       float64
	DetectLo, DetectHi float64

	// MaxAttempts caps executions per task including retries.
	MaxAttempts int

	// Degradation overrides the host-degradation episode process.
	Degradation *fabric.DegradationConfig

	// StorageFaults injects the same transient-fault mix into every storage
	// service the campaign touches (tables, queues, blobs) — the uniform
	// fault campaign. The campaign's storage calls run under the default
	// retry policy, so Table 2-style transient errors are mostly absorbed;
	// terminal failures are tallied in Stats.StorageErrors.
	StorageFaults reqpath.FaultConfig

	// Chaos, when non-nil and enabled, runs a whole-datacenter fault
	// campaign (host crashes, degradation windows, rack partitions, storage
	// outages) alongside the workload. The campaign survives via the same
	// retry and timeout-monitor machinery the paper's §5 study credits:
	// crashed workers' in-flight tasks are re-enqueued, and the fabric
	// re-acquires replacement VMs after a delay. The chaos streams are
	// label-forked, so a nil/disabled config leaves every trace
	// bit-identical.
	Chaos *chaos.Config

	// Domains ≥ 1 runs the campaign sharded onto a sim.Domains group of
	// that width (clamped to Shards; the clamp is surfaced through
	// RequestedDomains/EffectiveDomains, never silent). Zero keeps the
	// legacy single-engine path, byte-identical to previous releases.
	// Sharded results are bit-identical at every width — shard identity is
	// fixed by Shards, not Domains — but differ from the legacy path,
	// whose queue is a single serial object.
	Domains int

	// Shards is the fixed partition count for sharded runs (default 8):
	// workers, their VMs/hosts/degradation streams, and the task queue
	// split into this many shards, shard s running on domain s mod
	// Domains. Changing Shards changes the trace; changing Domains does
	// not.
	Shards int

	// DomainStats, when non-nil, accumulates the coordinator's
	// rounds/mail/busy accounting for sharded runs (bench plumbing).
	DomainStats *sim.DomainAccum
}

// DefaultConfig is the paper-scale campaign.
func DefaultConfig() Config {
	return Config{
		Seed:                42,
		Days:                242,
		Workers:             200,
		MeanRequestGap:      100 * time.Minute,
		MeanTasksPerRequest: 450,
		KillMultiple:        4,
		DetectLo:            1.1,
		DetectHi:            1.5,
		MaxAttempts:         5,
	}
}

// Stage ratios relative to a request's reprojection task count, derived from
// Table 2's execution mix after removing retry inflation (see DESIGN.md).
const (
	downloadPerReproj    = 0.089
	aggregationPerReproj = 0.0055
	reductionPerReproj   = 0.76
)

// modisDegradation returns the episode process calibrated for Fig. 7: rare
// episodes (about a dozen over the campaign) that strike 2-35% of hosts with
// a 4-6.5x slowdown for 2-18 h, yielding an overall VM-timeout share of
// ~0.17% of executions and daily spikes up to ~16%.
func modisDegradation() fabric.DegradationConfig {
	return fabric.DegradationConfig{
		MeanInterarrival: 320 * time.Hour,
		FracLo:           0.02,
		FracHi:           0.42,
		SlowLo:           4.0,
		SlowHi:           7.0,
		DurLo:            3 * time.Hour,
		DurHi:            22 * time.Hour,
	}
}

// Stats aggregates a campaign's observable outcomes.
type Stats struct {
	TaskExecs *metrics.CounterSet // executions per task type
	Outcomes  *metrics.CounterSet // executions per Table 2 outcome class

	DailyExecs    []uint64
	DailyTimeouts []uint64

	DistinctTasks uint64
	Requests      uint64
	Retries       uint64

	// Kill-ablation metrics: compute burned by monitor-killed executions
	// and kills of executions running on healthy hosts.
	WastedSeconds float64
	FalseKills    uint64

	// CompletedRequests counts requests whose final stage drained (the
	// user-notification event), and TurnaroundHours their submit-to-done
	// latency distribution.
	CompletedRequests uint64
	TurnaroundHours   *metrics.Sample

	// StorageRetries counts storage-operation attempts beyond the first
	// (the retry mechanism of Section 5.2 absorbing transient faults);
	// StorageErrors tallies operations that still failed after retrying,
	// keyed by "op/code".
	StorageRetries uint64
	StorageErrors  *metrics.CounterSet

	// CrashAborted counts executions cut short because a host crash killed
	// the worker mid-task. These are not monitor kills: they never record an
	// outcome, never touch FalseKills, and the interrupted task is
	// re-enqueued by the crash handler.
	CrashAborted uint64
	// ReplacementVMs counts workers the fabric re-acquired after crashes.
	ReplacementVMs uint64
}

// TotalExecs returns the total task execution count.
func (s *Stats) TotalExecs() uint64 { return s.TaskExecs.Total() }

// SuccessShare returns the fraction of executions recorded as Success.
func (s *Stats) SuccessShare() float64 {
	return float64(s.Outcomes.Get(string(OutcomeSuccess))) / float64(s.TotalExecs())
}

// TimeoutShare returns the fraction of executions killed by the VM timeout.
func (s *Stats) TimeoutShare() float64 {
	return float64(s.Outcomes.Get(string(OutcomeVMTimeout))) / float64(s.TotalExecs())
}

// Fig7Series returns the daily percentage of executions killed by the VM
// timeout (days without executions report 0).
func (s *Stats) Fig7Series() *metrics.TimeSeries {
	ts := &metrics.TimeSeries{}
	for d := range s.DailyExecs {
		pct := 0.0
		if s.DailyExecs[d] > 0 {
			pct = float64(s.DailyTimeouts[d]) / float64(s.DailyExecs[d]) * 100
		}
		ts.Add(time.Duration(d)*24*time.Hour, pct)
	}
	return ts
}

// Campaign is one ModisAzure deployment run.
type Campaign struct {
	cfg   Config
	cloud *azure.Cloud
	rng   *simrand.RNG
	Stats *Stats

	// Log receives one record per task execution (the Section 6.3
	// "logging and monitoring infrastructure"); Analyzer derives the
	// Table 2 / Fig. 7 views from that stream, as the paper's authors did
	// from their production logs.
	Log      *oplog.Log
	Analyzer *oplog.TaxonomyAnalyzer

	// retry wraps every storage call the campaign makes; with fault
	// injection off it never draws or sleeps, keeping fault-free campaigns
	// bit-identical.
	retry azure.RetryPolicy

	queue   *taskQueue
	workers []*fabric.VM

	// Request intake (Fig. 6): portal → request table + service queue →
	// service manager.
	reqQueue  *queuesvc.Queue
	reqTokens *sim.Queue[*Request]

	nextTaskID uint64
	nextReqID  uint64

	// Chaos machinery (all nil/empty when cfg.Chaos is off). procs, current
	// and execStart are indexed by worker slot; vmSlot maps a live worker VM
	// back to its slot so a host-crash callback can find who died.
	chaos     *chaos.Engine
	procs     []*sim.Proc
	current   []*Task
	execStart []time.Duration
	vmSlot    map[*fabric.VM]int
	reacqRNG  *simrand.RNG
	respawns  int

	// Conservation counters (checked against the invariant harness at the
	// end of Run): finishes counts finishTask calls (legacy mode) or
	// applied finish notes (sharded mode).
	finishes uint64

	// Sharded mode (cfg.Domains ≥ 1). The coordinator — portal, service
	// manager, request state, task dispatch — lives on domain 0 with its
	// own cloud (c.cloud); workers, their VMs/hosts/degradation streams
	// and the task queue split into cfg.Shards shards, shard s on domain
	// s mod width. All cross-shard traffic is boundary mail: dispatches
	// outbound, completion/retry/crash notes inbound, drained from inbox
	// in the canonical (send time, shard, per-shard seq) order so every
	// coordinator decision is independent of the domain width.
	group            *sim.Domains
	shards           []*shard
	requestedDomains int
	inbox            []taskNote
	inboxArmed       bool
	dispatchSeq      uint64
	applied          [numNoteKinds]uint64
}

// taskQueue couples the real Azure queue service with an instant wakeup
// channel so idle workers do not busy-poll across months of simulated time.
// (The production system polled; the token queue reproduces the same FIFO
// delivery without 10^8 empty polls.) do is the legacy campaign's
// storage-operation wrapper, used by the blocking enqueue/dequeue; sharded
// shards drive the same state from flat actors (sharded.go) and leave it
// nil.
type taskQueue struct {
	do     func(p *sim.Proc, name string, op func() error) error
	cloud  *azure.Cloud
	q      *queuesvc.Queue
	tokens *sim.Queue[uint64]
	tasks  map[uint64]*Task

	// delivered counts tasks handed to workers — one side of the
	// delivered == executions + crash-aborted + in-flight conservation
	// equation checked at the end of a run.
	delivered uint64
}

// withDefaults fills zero fields from DefaultConfig and normalises the
// sharding knobs.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.Days == 0 {
		cfg.Days = def.Days
	}
	if cfg.Workers == 0 {
		cfg.Workers = def.Workers
	}
	if cfg.MeanRequestGap == 0 {
		cfg.MeanRequestGap = def.MeanRequestGap
	}
	if cfg.MeanTasksPerRequest == 0 {
		cfg.MeanTasksPerRequest = def.MeanTasksPerRequest
	}
	if cfg.KillMultiple == 0 {
		cfg.KillMultiple = def.KillMultiple
	}
	if cfg.DetectLo == 0 {
		cfg.DetectLo = def.DetectLo
	}
	if cfg.DetectHi == 0 {
		cfg.DetectHi = def.DetectHi
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = def.MaxAttempts
	}
	if cfg.Domains > 0 && cfg.Shards == 0 {
		cfg.Shards = defaultShards
	}
	return cfg
}

// newCampaignStats allocates a Stats block with Table 2's row order
// pre-registered, so reports are stable even for classes that never occur
// at small scale.
func newCampaignStats(days int) *Stats {
	st := &Stats{
		TaskExecs:       metrics.NewCounterSet(),
		Outcomes:        metrics.NewCounterSet(),
		DailyExecs:      make([]uint64, days+1),
		DailyTimeouts:   make([]uint64, days+1),
		TurnaroundHours: metrics.NewSample(4096),
		StorageErrors:   metrics.NewCounterSet(),
	}
	for _, ty := range []TaskType{SourceDownload, Aggregation, Reprojection, Reduction} {
		st.TaskExecs.Inc(ty.String(), 0)
	}
	_, oc := paperTable2()
	for _, o := range table2OutcomeOrder() {
		if _, ok := oc[o]; ok {
			st.Outcomes.Inc(string(o), 0)
		}
	}
	st.Outcomes.Inc(string(OutcomeUserCode), 0)
	return st
}

// NewCampaign assembles a campaign.
func NewCampaign(cfg Config) *Campaign {
	cfg = cfg.withDefaults()
	if cfg.Domains > 0 {
		return newShardedCampaign(cfg)
	}

	ccfg := azure.Config{Seed: cfg.Seed, Faults: cfg.StorageFaults}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = true
	dcfg := modisDegradation()
	if cfg.Degradation != nil {
		dcfg = *cfg.Degradation
	}
	ccfg.Fabric.DegradationConfig = &dcfg
	cloud := azure.NewCloud(ccfg)

	c := &Campaign{
		cfg:      cfg,
		cloud:    cloud,
		rng:      simrand.New(cfg.Seed).Fork("modis"),
		Stats:    newCampaignStats(cfg.Days),
		workers:  cloud.Controller.ReadyFleet(cfg.Workers, fabric.Worker, fabric.Small),
		Log:      oplog.New(256),
		Analyzer: oplog.NewTaxonomyAnalyzer(string(OutcomeVMTimeout)),
	}
	c.retry = azure.DefaultRetryPolicy().WithJitter(0.5, c.rng.Fork("retry"))
	c.Log.Subscribe(c.Analyzer.Sink())
	c.queue = &taskQueue{
		do:     c.storageDo,
		cloud:  cloud,
		q:      cloud.Queue.CreateQueue("modis-tasks"),
		tokens: sim.NewQueue[uint64](),
		tasks:  make(map[uint64]*Task),
	}
	// The request path of Fig. 6: the portal stores each request in an
	// Azure table and enqueues it on a service queue watched by the
	// service manager.
	cloud.Table.CreateTable("modis-requests")
	c.reqQueue = cloud.Queue.CreateQueue("modis-requests")
	c.reqTokens = sim.NewQueue[*Request]()
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		ch := *cfg.Chaos
		if ch.Horizon == 0 {
			ch.Horizon = time.Duration(cfg.Days) * 24 * time.Hour
		}
		// The chaos root is forked from the campaign seed by label, exactly
		// like every other subsystem stream: with chaos off, nothing below
		// draws from it and every other stream is untouched.
		c.chaos = chaos.New(cloud, simrand.New(cfg.Seed).Fork("chaos"), ch)
		c.reacqRNG = c.rng.Fork("reacquire")
	}
	return c
}

// table2OutcomeOrder lists the outcome classes in Table 2's printed order.
func table2OutcomeOrder() []Outcome {
	return []Outcome{
		OutcomeSuccess, OutcomeUnknownFailure, OutcomeBlobExists,
		OutcomeNullLog, OutcomeDownloadFailed, OutcomeConnection,
		OutcomeVMTimeout, OutcomeOpTimeout, OutcomeCorruptBlob,
		OutcomeServerBusy, OutcomeBlobReadFail, OutcomeNoSourceBlob,
		OutcomeUnreadableFile, OutcomeBadImage, OutcomeTransport,
		OutcomeInternalClient, OutcomeOutOfDisk,
	}
}

// Cloud exposes the underlying cloud (tests and the CLI use it). In sharded
// mode this is the coordinator's cloud on domain 0.
func (c *Campaign) Cloud() *azure.Cloud { return c.cloud }

// ChaosReport returns the fault-campaign taxonomy, or nil when chaos is off.
// A sharded campaign's report is the shard reports merged in shard order.
func (c *Campaign) ChaosReport() *chaos.Report {
	if c.group != nil {
		if c.shards[0].chaos == nil {
			return nil
		}
		rep := chaos.NewReport()
		for _, sh := range c.shards {
			rep.Merge(sh.chaos.Report())
		}
		rep.Violations = c.InvariantViolations()
		return rep
	}
	if c.chaos == nil {
		return nil
	}
	return c.chaos.Report()
}

// EnableInvariants turns on the kernel invariant harness for every engine
// the campaign runs on (one in legacy mode, every domain in sharded mode).
// failFast=false records violations instead of panicking.
func (c *Campaign) EnableInvariants(failFast bool) {
	if c.group == nil {
		c.cloud.Engine.EnableInvariants(failFast)
		return
	}
	for i := 0; i < c.group.N(); i++ {
		c.group.Domain(i).EnableInvariants(failFast)
	}
}

// InvariantViolations sums recorded invariant violations across the
// campaign's engines (zero when the harness was never enabled).
func (c *Campaign) InvariantViolations() uint64 {
	if c.group == nil {
		if inv := c.cloud.Engine.Invariants(); inv != nil {
			return inv.ViolationCount()
		}
		return 0
	}
	var n uint64
	for i := 0; i < c.group.N(); i++ {
		if inv := c.group.Domain(i).Invariants(); inv != nil {
			n += inv.ViolationCount()
		}
	}
	return n
}

// RequestedDomains and EffectiveDomains surface the sharding clamp: a
// request for more domains than shards is cut to the shard count (a domain
// with no shard would idle every round), and callers are expected to report
// the difference rather than let it pass silently.
func (c *Campaign) RequestedDomains() int { return c.requestedDomains }

// EffectiveDomains returns the domain width the campaign actually runs at
// (0 in legacy mode).
func (c *Campaign) EffectiveDomains() int {
	if c.group == nil {
		return 0
	}
	return c.group.N()
}

// DomainStats returns the sharded coordinator's accounting (zero in legacy
// mode). Valid after Run.
func (c *Campaign) DomainStats() sim.DomainStats {
	if c.group == nil {
		return sim.DomainStats{}
	}
	s := c.group.Stats()
	s.Requested = c.requestedDomains
	return s
}

// RecentRecords returns the tail of the campaign's execution log — the ring
// contents in legacy mode, the shard rings merged by (time, shard) in
// sharded mode.
func (c *Campaign) RecentRecords() []oplog.Record {
	if c.group == nil {
		return c.Log.Recent()
	}
	var out []oplog.Record
	for _, sh := range c.shards {
		out = append(out, sh.log.Recent()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Run executes the campaign for its configured horizon. Once the books are
// closed it tears the engines down, retiring every process still parked at
// the horizon, so a finished campaign holds no goroutines. Run once.
func (c *Campaign) Run() *Stats {
	if c.group != nil {
		return c.runSharded()
	}
	c.cloud.Engine.Spawn("portal", c.portal)
	c.cloud.Engine.SpawnDaemon("service-manager", c.serviceManager)
	c.procs = make([]*sim.Proc, len(c.workers))
	c.current = make([]*Task, len(c.workers))
	c.execStart = make([]time.Duration, len(c.workers))
	for i, vm := range c.workers {
		vm, i := vm, i
		c.procs[i] = c.cloud.Engine.Spawn(fmt.Sprintf("worker%d", i), func(p *sim.Proc) {
			c.workerLoop(p, vm, i, c.rng.ForkN("worker", i))
		})
	}
	if c.chaos != nil {
		c.vmSlot = make(map[*fabric.VM]int, len(c.workers))
		for i, vm := range c.workers {
			c.vmSlot[vm] = i
		}
		c.cloud.DC.OnHostDown(c.onHostDown)
		c.chaos.Start()
	}
	c.cloud.Engine.RunUntil(time.Duration(c.cfg.Days) * 24 * time.Hour)
	c.checkConservation()
	if c.chaos != nil {
		c.chaos.Report().Violations = c.cloud.Engine.Invariants().ViolationCount()
	}
	c.cloud.Engine.Teardown()
	return c.Stats
}

// checkConservation closes the campaign's books against the invariant
// harness: every task handed to a worker is accounted for by a recorded
// execution, a crash abort (re-enqueued), or an in-flight execution frozen by
// the horizon; and every recorded execution either finished its task or
// retried it.
func (c *Campaign) checkConservation() {
	inv := c.cloud.Engine.Invariants()
	if inv == nil {
		return
	}
	var inFlight uint64
	for _, t := range c.current {
		if t != nil {
			inFlight++
		}
	}
	execs := c.Stats.TotalExecs()
	inv.Checkf(c.queue.delivered == execs+c.Stats.CrashAborted+inFlight,
		"task conservation: %d delivered != %d executions + %d crash-aborted + %d in flight",
		c.queue.delivered, execs, c.Stats.CrashAborted, inFlight)
	inv.Checkf(execs == c.finishes+c.Stats.Retries,
		"execution conservation: %d executions != %d finishes + %d retries",
		execs, c.finishes, c.Stats.Retries)
}

// onHostDown is the campaign's crash handler (kernel context, fired inside
// CrashHost). For each failed worker VM it kills the worker process,
// re-enqueues whatever task it was executing (crediting the lost work to the
// chaos report), and schedules the fabric re-acquisition of a replacement
// worker.
func (c *Campaign) onHostDown(_ *fabric.Host, failed []*fabric.VM) {
	for _, vm := range failed {
		slot, ok := c.vmSlot[vm]
		if !ok {
			continue // not one of ours (or already handled)
		}
		delete(c.vmSlot, vm)
		if t := c.current[slot]; t != nil {
			c.chaos.Report().AddWorkLost(c.cloud.Engine.Now() - c.execStart[slot])
			t.lost = true
			c.current[slot] = nil
			c.Stats.CrashAborted++
			// Re-enqueueing needs a process (it is a storage operation);
			// the monitor-side reclaim runs as its own short-lived proc.
			c.cloud.Engine.Spawn(fmt.Sprintf("reclaim/%d", t.ID), func(p *sim.Proc) {
				c.queue.enqueue(p, t)
			})
		}
		if c.procs[slot] != nil {
			c.procs[slot].Kill()
			c.procs[slot] = nil
		}
		c.respawns++
		gen := c.respawns
		c.cloud.Engine.Spawn(fmt.Sprintf("reacquire/%d", gen), func(p *sim.Proc) {
			// Fabric re-acquisition delay: the gap the paper observed
			// between a node failure and its capacity coming back.
			p.Sleep(simrand.Duration(simrand.Uniform{
				Lo: (10 * time.Minute).Seconds(), Hi: (45 * time.Minute).Seconds()}, c.reacqRNG))
			nvm := c.cloud.Controller.ReplacementVM(fabric.Worker, fabric.Small)
			c.workers[slot] = nvm
			c.vmSlot[nvm] = slot
			c.Stats.ReplacementVMs++
			rng := c.rng.ForkN("worker-r", gen)
			c.procs[slot] = c.cloud.Engine.Spawn(fmt.Sprintf("worker%d/r%d", slot, gen), func(p2 *sim.Proc) {
				c.workerLoop(p2, nvm, slot, rng)
			})
		})
	}
}

// portal generates user requests for the campaign horizon.
func (c *Campaign) portal(p *sim.Proc) {
	gap := simrand.Exponential{Rate: 1 / c.cfg.MeanRequestGap.Seconds()}
	sizeDist := simrand.LogNormalMeanCV(c.cfg.MeanTasksPerRequest, 1.0)
	rng := c.rng.Fork("portal")
	horizon := time.Duration(c.cfg.Days) * 24 * time.Hour
	for {
		next := simrand.Duration(gap, rng)
		if p.Now()+next >= horizon {
			return
		}
		p.Sleep(next)
		c.submitRequest(p, rng, sizeDist)
	}
}

// submitRequest performs the portal's side of Fig. 6: persist the request
// in the Azure table, enqueue it on the service queue, and wake the service
// manager.
func (c *Campaign) submitRequest(p *sim.Proc, rng *simrand.RNG, sizeDist simrand.Dist) {
	c.nextReqID++
	req := &Request{ID: c.nextReqID, submitted: p.Now()}
	nReproj := int(sizeDist.Sample(rng))
	if nReproj < 1 {
		nReproj = 1
	}
	req.planned = nReproj
	reqEntity := &tablesvc.Entity{
		PartitionKey: "requests",
		RowKey:       fmt.Sprintf("req-%08d", req.ID),
		Props: map[string]tablesvc.Prop{
			"Reprojections": tablesvc.IntProp(int64(nReproj)),
			"Status":        tablesvc.StrProp("submitted"),
		},
	}
	if err := c.storageDo(p, "table.Insert", func() error {
		return c.cloud.Table.Insert(p, "modis-requests", reqEntity)
	}); err != nil {
		return // request lost at the portal; tallied in StorageErrors
	}
	if err := c.storageDo(p, "queue.Add", func() error {
		_, err := c.cloud.Queue.Add(p, c.reqQueue, fmt.Sprintf("%d", req.ID), 512)
		return err
	}); err != nil {
		return
	}
	c.reqTokens.Put(req)
	c.Stats.Requests++
}

// serviceManager drains the service queue, expanding each request into its
// staged task set and releasing the first stage — the "service manager
// which manages the execution of the requests and their associated tasks"
// of Section 5.1.
func (c *Campaign) serviceManager(p *sim.Proc) {
	rng := c.rng.Fork("manager")
	for {
		req := c.reqTokens.Get(p)
		var msg *queuesvc.Message
		var rcpt queuesvc.Receipt
		var ok bool
		if err := c.storageDo(p, "queue.Receive", func() error {
			var err error
			msg, rcpt, ok, err = c.cloud.Queue.Receive(p, c.reqQueue, 2*time.Hour)
			return err
		}); err != nil {
			continue // request stranded in the service queue; tallied
		}
		if !ok {
			continue
		}
		// A failed delete leaves the message to reappear after its
		// visibility window; the request itself still proceeds.
		c.storageDo(p, "queue.Delete", func() error {
			return c.cloud.Queue.Delete(p, c.reqQueue, rcpt)
		})
		_ = msg
		c.expandRequest(p, req, rng)
	}
}

// expandRequest turns a request into staged tasks and releases the first
// stage.
func (c *Campaign) expandRequest(p *sim.Proc, req *Request, rng *simrand.RNG) {
	nReproj := req.planned
	counts := [numTaskTypes]int{}
	counts[SourceDownload] = int(float64(nReproj)*downloadPerReproj + rng.Float64())
	counts[Aggregation] = int(float64(nReproj)*aggregationPerReproj + rng.Float64())
	counts[Reprojection] = nReproj
	counts[Reduction] = int(float64(nReproj)*reductionPerReproj + rng.Float64())
	wrng := c.rng.ForkN("work", int(req.ID))
	for _, ty := range stageOrder() {
		work := nominalWork(ty)
		for i := 0; i < counts[ty]; i++ {
			c.nextTaskID++
			t := &Task{
				ID:      c.nextTaskID,
				Type:    ty,
				Request: req,
				Work:    simrand.Duration(work, wrng),
			}
			req.tasks[ty] = append(req.tasks[ty], t)
		}
		req.remaining[ty] = counts[ty]
		c.Stats.DistinctTasks += uint64(counts[ty])
	}
	c.releaseStage(p, req, 0)
}

// stageOrder is the pipeline order: collection precedes reprojection, which
// precedes aggregation, which precedes reduction (Section 5.1).
func stageOrder() []TaskType {
	return []TaskType{SourceDownload, Reprojection, Aggregation, Reduction}
}

// releaseStage enqueues the first non-empty stage at or after idx. When no
// stage remains the request is complete: the user is notified and the
// turnaround recorded ("upon completion ... an email is sent to the user",
// Section 5.1).
func (c *Campaign) releaseStage(p *sim.Proc, req *Request, idx int) {
	c.releaseStageAt(p, p.Now(), req, idx)
}

// releaseStageAt is releaseStage with the clock passed explicitly: sharded
// completions apply at the coordinator's inbox drain, an event with no
// process (p is nil there; sharded release dispatches mail, which needs no
// process either).
func (c *Campaign) releaseStageAt(p *sim.Proc, now time.Duration, req *Request, idx int) {
	order := stageOrder()
	for ; idx < len(order); idx++ {
		ty := order[idx]
		if req.remaining[ty] > 0 {
			for _, t := range req.tasks[ty] {
				if c.group != nil {
					c.dispatchTask(t)
				} else {
					c.queue.enqueue(p, t)
				}
			}
			return
		}
	}
	c.Stats.CompletedRequests++
	c.Stats.TurnaroundHours.Add((now - req.submitted).Hours())
}

// storageDo runs one storage operation under the campaign's retry policy —
// the "robust retry mechanisms" the paper found indispensable (Section 5.2)
// in place of the original panic-on-error plumbing. Retries and terminal
// failures are tallied; the terminal error (nil on success) is returned so
// call sites can shed the affected work instead of crashing the campaign.
func (c *Campaign) storageDo(p *sim.Proc, name string, op func() error) error {
	attempts := 0
	err := c.retry.Do(p, func() error {
		attempts++
		return op()
	})
	if attempts > 1 {
		c.Stats.StorageRetries += uint64(attempts - 1)
	}
	if err != nil {
		c.Stats.StorageErrors.Inc(name+"/"+string(storerr.CodeOf(err)), 1)
	}
	return err
}

// stageIndex returns a type's position in the pipeline order.
func stageIndex(ty TaskType) int {
	for i, t := range stageOrder() {
		if t == ty {
			return i
		}
	}
	return -1
}

// workerLoop pulls tasks forever; RunUntil bounds the campaign. A host crash
// kills the loop's process; the crash handler respawns it on a replacement
// VM with a fresh stream.
func (c *Campaign) workerLoop(p *sim.Proc, vm *fabric.VM, id int, rng *simrand.RNG) {
	for {
		task := c.queue.dequeue(p)
		c.execute(p, vm, task, rng, id)
	}
}

// execute runs one task execution on a VM and records its outcome.
func (c *Campaign) execute(p *sim.Proc, vm *fabric.VM, task *Task, rng *simrand.RNG, id int) {
	task.Attempts++
	// The in-flight marker is how the crash handler knows what this worker
	// was doing; it is cleared the instant the execution sleep returns, so a
	// monitor kill and a host crash landing on the same execution can never
	// both account for it (the FalseKills double-count hazard).
	c.current[id] = task
	c.execStart[id] = p.Now()
	day := int(p.Now() / (24 * time.Hour))
	if day >= len(c.Stats.DailyExecs) {
		day = len(c.Stats.DailyExecs) - 1
	}

	// Status-tracking overhead per execution (queue delete, table update):
	// folded into the execution time to keep the event count linear.
	overhead := simrand.Duration(simrand.LogNormalMeanCV(0.4, 0.3), rng)

	// Execution time: the task's nominal work, dilated by the host's
	// current slowdown, with small per-execution noise. The monitor kills
	// at KillMultiple x the task's own expected duration ("4x the average
	// completion time for that task", Section 5.2), plus detection latency
	// — so on healthy hosts nothing is killed, and a 4-6.5x degraded host
	// pushes most of its tasks past the threshold.
	noise := simrand.LogNormalMeanCV(1, 0.08).Sample(rng)
	dilated := time.Duration(float64(task.Work) * vm.Host.Slowdown() * noise)
	threshold := time.Duration(c.cfg.KillMultiple * float64(task.Work) *
		simrand.Uniform{Lo: c.cfg.DetectLo, Hi: c.cfg.DetectHi}.Sample(rng))

	var outcome Outcome
	if dilated > threshold {
		// The task monitor kills the execution at the threshold and
		// reschedules the task (Section 5.2).
		p.Sleep(threshold + overhead)
		c.current[id] = nil
		outcome = OutcomeVMTimeout
		c.Stats.DailyTimeouts[day]++
		c.Stats.recordKill(threshold, !vm.Host.Degraded())
	} else {
		p.Sleep(dilated + overhead)
		c.current[id] = nil
		outcome = sampleOutcome(task.Type, rng)
	}
	if task.lost && c.chaos != nil && outcome.Completes() {
		// A crash had interrupted an earlier attempt of this task; its
		// nominal work is now recovered through re-execution.
		c.chaos.Report().AddWorkRecovered(task.Work)
		task.lost = false
	}
	// Executions are recorded on completion (as the production system's
	// logs were); the day bucket is the start day, where the bulk of the
	// execution ran.
	c.Stats.TaskExecs.Inc(task.Type.String(), 1)
	c.Stats.DailyExecs[day]++
	c.Stats.Outcomes.Inc(string(outcome), 1)
	sev := oplog.Info
	if !outcome.Completes() {
		sev = oplog.Error
	}
	c.Log.Emit(oplog.Record{
		Time:     p.Now(),
		Severity: sev,
		Source:   vm.Name,
		Category: task.Type.String(),
		Event:    string(outcome),
		Detail:   fmt.Sprintf("task %d attempt %d", task.ID, task.Attempts),
	})

	switch {
	case outcome.Completes():
		c.finishTask(p, task)
	case outcome.Retryable() && task.Attempts < c.cfg.MaxAttempts:
		c.Stats.Retries++
		c.queue.enqueue(p, task)
	default:
		// Terminal failure: the pipeline gives up on this task; the request
		// still progresses (partial products, as in the real system).
		c.finishTask(p, task)
	}
}

// finishTask retires a task and releases the next stage when its stage
// drains.
func (c *Campaign) finishTask(p *sim.Proc, task *Task) {
	c.finishes++
	req := task.Request
	req.remaining[task.Type]--
	if req.remaining[task.Type] == 0 {
		c.releaseStage(p, req, stageIndex(task.Type)+1)
	}
	req.tasks[task.Type] = nil // allow the task memory to be reclaimed
}

// enqueue adds a task to the service queue and wakes one worker. A task
// whose Add fails terminally is lost (its stage never drains) — the
// production hazard the explicit status tables were built to detect.
func (b *taskQueue) enqueue(p *sim.Proc, t *Task) {
	b.tasks[t.ID] = t
	if err := b.do(p, "queue.Add", func() error {
		_, err := b.cloud.Queue.Add(p, b.q, strconv.FormatUint(t.ID, 10), 1024)
		return err
	}); err != nil {
		delete(b.tasks, t.ID)
		return
	}
	b.tokens.Put(t.ID)
}

// dequeue blocks until a task is available, then performs the real queue
// receive + delete (explicit status tracking makes the visibility timeout a
// backstop only).
func (b *taskQueue) dequeue(p *sim.Proc) *Task {
	for {
		tok := b.tokens.Get(p)
		if t := b.tryReceive(p, tok); t != nil {
			return t
		}
	}
}

// tryReceive spends one wakeup token on receiving a task. A worker killed by
// a host crash mid-receive restores the token on its unwind path, so the
// message the token paired with is eventually delivered to another worker
// instead of stranding until nobody is left to ask for it.
func (b *taskQueue) tryReceive(p *sim.Proc, tok uint64) *Task {
	credited := true
	defer func() {
		if rec := recover(); rec != nil {
			if credited {
				b.tokens.Put(tok)
			}
			panic(rec)
		}
	}()
	for {
		var msg *queuesvc.Message
		var rcpt queuesvc.Receipt
		var ok bool
		if err := b.do(p, "queue.Receive", func() error {
			var err error
			msg, rcpt, ok, err = b.cloud.Queue.Receive(p, b.q, 2*time.Hour)
			return err
		}); err != nil {
			credited = false // token spent; message stranded until its visibility backstop
			return nil
		}
		if !ok {
			credited = false // token raced a message already consumed
			return nil
		}
		// A failed delete means this message reappears after its
		// visibility window — the stale-redelivery hazard of
		// Section 5.2. The reappearance is handled below.
		b.do(p, "queue.Delete", func() error {
			return b.cloud.Queue.Delete(p, b.q, rcpt)
		})
		id, err := strconv.ParseUint(msg.Body, 10, 64)
		if err != nil {
			panic(err)
		}
		t, live := b.tasks[id]
		if !live {
			// Stale redelivery of a message whose earlier delete failed:
			// its task already ran. Discard and receive again on the
			// same token, which still has a live message to pair with.
			continue
		}
		delete(b.tasks, id)
		credited = false
		b.delivered++
		return t
	}
}
