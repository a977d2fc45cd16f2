// Package netsim models the datacenter network as a fluid, flow-level
// system: transfers are flows traversing a path of links, and the rate of
// every active flow is the progressive-filling max-min fair allocation over
// link capacities. When the flow set changes, rates are recomputed and every
// flow's completion event is rescheduled.
//
// Links may carry a concurrency-dependent effective capacity
// (SetCapacityFn), which is how the calibrated "black box" overheads of the
// paper's storage front-ends are expressed: the paper measured aggregate
// service bandwidth that grows sub-linearly and eventually peaks as client
// count rises, without being able to attribute the loss to any internal
// component (Section 3.1).
//
// # Allocation fast path
//
// The closed-loop sweeps of Sections 3.1–3.3 churn hundreds of concurrent
// flows through one fabric, and every arrival or completion triggers a
// reallocation, so this is the simulator's hottest path. The solver is
// incremental: per-link state lives on the Link itself (stamped with a pass
// epoch instead of rebuilt in a map), links are grouped into connected
// components with a union-find pass, and only the components whose flow set
// changed since the last solve are re-run — flows in untouched components
// keep their rates and their scheduled completion events. Completion events
// are only re-created when the predicted completion time actually moved, and
// retired events are recycled through the kernel's event pool.
//
// The fast path is bit-exact with the from-scratch progressive-filling
// solver: components never interact (a flow's rate depends only on links it
// can reach through shared flows), flows are scanned in arrival order so
// tie-breaking between equally-loaded links is unchanged, and kept events
// fire at exactly the time a recomputation would have produced. The
// property tests cross-check incremental against from-scratch allocations on
// random churn sequences, and internal/core's trace goldens pin whole
// experiment runs to the bit.
package netsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"azureobs/internal/sim"
)

// Bandwidth is expressed in bytes per second. The paper reports MB/s with
// decimal megabytes (1 Gbit/s Ethernet ≙ 125 MB/s), so MBps = 1e6 B/s.
type Bandwidth float64

// Common bandwidth units.
const (
	Bps  Bandwidth = 1
	KBps           = 1000 * Bps
	MBps           = 1000 * KBps
	GBps           = 1000 * MBps
)

// MB is a convenience for sizing transfers in decimal megabytes.
const MB int64 = 1_000_000

// GB is a convenience for sizing transfers in decimal gigabytes.
const GB int64 = 1_000_000_000

// Link is one capacity-constrained network segment: a VM NIC, a storage
// front-end's egress trunk, a rack uplink.
type Link struct {
	name  string
	cap   Bandwidth
	capFn func(nflows int) Bandwidth

	nflows int // active flows crossing this link

	// Solver scratch, owned by the fabric. epoch-stamped fields are valid
	// only for the reallocation pass whose epoch matches, which is what lets
	// the solver skip rebuilding per-link state in a map on every call.
	epoch    uint64  // pass this link was last collected in
	capEpoch uint64  // pass capRem was last initialised in
	comp     int     // union-find node id within the epoch pass
	unfix    int     // flows crossing this link not yet fixed by the solver
	capRem   float64 // capacity not yet claimed by fixed flows
	dirty    bool    // flow set changed since the last solve
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's nominal capacity.
func (l *Link) Capacity() Bandwidth { return l.cap }

// Flows returns the number of active flows crossing the link.
func (l *Link) Flows() int { return l.nflows }

// SetCapacityFn installs a concurrency-dependent effective capacity. When
// set, it overrides the nominal capacity whenever at least one flow is
// active. Effective capacity must be positive for every n ≥ 1; the solver
// validates this at allocation time and panics with the link name on a
// curve that dips to zero or below, since such a link would otherwise stall
// every flow crossing it forever.
func (l *Link) SetCapacityFn(fn func(nflows int) Bandwidth) { l.capFn = fn }

// effectiveCap returns the capacity available to n concurrent flows.
func (l *Link) effectiveCap(n int) Bandwidth {
	if l.capFn != nil {
		return l.capFn(n)
	}
	return l.cap
}

// Flow is one active transfer.
type Flow struct {
	path      []*Link
	remaining float64 // bytes
	rate      float64 // bytes/sec, assigned by the solver
	updated   time.Duration
	completed bool
	done      sim.Signal
	complete  *sim.Event
	onFire    func() // cached completion callback (one closure per flow)
	index     int    // position in Fabric.flows; -1 once removed
}

// Rate returns the flow's current max-min fair rate in bytes/sec.
func (f *Flow) Rate() Bandwidth { return Bandwidth(f.rate) }

// Remaining returns the bytes not yet delivered (as of the last settle).
func (f *Flow) Remaining() float64 { return f.remaining }

// Fabric owns the links and active flows of one simulated network and keeps
// the max-min allocation current as flows come and go.
type Fabric struct {
	eng   *sim.Engine
	flows []*Flow

	// Incremental-solver state: links whose flow set changed since the last
	// solve, plus reusable scratch buffers so a reallocation allocates
	// nothing in steady state.
	epoch      uint64
	dirtyLinks []*Link
	ufParent   []int
	compDirty  []bool
	unfixed    []*Flow
}

// NewFabric creates an empty network bound to the engine.
func NewFabric(eng *sim.Engine) *Fabric {
	return &Fabric{eng: eng}
}

// NewLink creates a link with the given nominal capacity (> 0).
func (f *Fabric) NewLink(name string, capacity Bandwidth) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: link %q capacity %v", name, capacity))
	}
	return &Link{name: name, cap: capacity}
}

// NewLinks creates n links of one capacity (> 0), link i named
// prefix+i+suffix (e.g. "host7-nic"). The links, their pointers and their
// names each share one allocation, so a datacenter's NICs cost a handful of
// allocations instead of two per link.
func (f *Fabric) NewLinks(n int, prefix, suffix string, capacity Bandwidth) []*Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: links %q…%q capacity %v", prefix, suffix, capacity))
	}
	var names strings.Builder
	names.Grow(n * (len(prefix) + len(suffix) + 3))
	ends := make([]int, n)
	var digits [20]byte
	for i := range ends {
		names.WriteString(prefix)
		names.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		names.WriteString(suffix)
		ends[i] = names.Len()
	}
	all := names.String()
	links := make([]Link, n)
	out := make([]*Link, n)
	start := 0
	for i := range links {
		links[i] = Link{name: all[start:ends[i]], cap: capacity}
		out[i] = &links[i]
		start = ends[i]
	}
	return out
}

// SetLinkCapacity changes a link's nominal capacity at runtime — the chaos
// engine's rack partitions squeeze NICs to an epsilon rate and restore them
// on repair. Flows in progress are settled at their old rates first, then the
// component containing the link re-solves; completion events move
// accordingly. Capacity must stay positive (use a small epsilon, not zero).
// Links driven by SetCapacityFn ignore the nominal value.
func (f *Fabric) SetLinkCapacity(l *Link, capacity Bandwidth) {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: link %q capacity %v", l.name, capacity))
	}
	if capacity == l.cap {
		return
	}
	f.settle()
	l.cap = capacity
	f.markDirty(l)
	f.reallocate()
}

// ActiveFlows returns the number of in-flight flows.
func (f *Fabric) ActiveFlows() int { return len(f.flows) }

// Transfer moves size bytes across the given path, blocking the calling
// process until the last byte arrives, and returns the elapsed virtual time.
// A killed process abandons the transfer; the flow is withdrawn and the
// bandwidth it held is redistributed.
func (f *Fabric) Transfer(p *sim.Proc, size int64, path ...*Link) time.Duration {
	if size <= 0 {
		return 0
	}
	start := p.Now()
	fl := f.StartFlow(size, path...)
	defer func() {
		if rec := recover(); rec != nil {
			f.abandon(fl)
			panic(rec)
		}
	}()
	fl.done.Wait(p)
	return p.Now() - start
}

// TransferFlat is the flat-actor form of Transfer: it injects the flow and
// arms then to run at the instant the last byte arrives, without parking a
// goroutine. A zero-size transfer completes synchronously (then runs before
// TransferFlat returns), mirroring Transfer's immediate return. Flat actors
// have no Kill, so there is no implicit abandon path — then always runs.
func (f *Fabric) TransferFlat(a *sim.Actor, size int64, then func(), path ...*Link) {
	if size <= 0 {
		then()
		return
	}
	fl := f.StartFlow(size, path...)
	fl.done.WaitFlat(a, then)
}

// StartFlow injects a flow without blocking. The returned flow's done signal
// fires on completion. Most callers want Transfer; StartFlow exists for
// event-driven users and tests.
func (f *Fabric) StartFlow(size int64, path ...*Link) *Flow {
	if len(path) == 0 {
		panic("netsim: flow with empty path")
	}
	fl := &Flow{path: path, remaining: float64(size), updated: f.eng.Now()}
	fl.onFire = func() { f.onComplete(fl) }
	f.settle()
	fl.index = len(f.flows)
	f.flows = append(f.flows, fl)
	for _, l := range path {
		l.nflows++
		f.markDirty(l)
	}
	f.reallocate()
	return fl
}

// Abandon withdraws an incomplete flow started with StartFlow: the flow is
// removed, its done signal never fires, and its bandwidth is redistributed.
// Abandoning a completed (or already abandoned) flow is a no-op. Transfer
// callers never need this — a killed sender abandons implicitly.
func (f *Fabric) Abandon(fl *Flow) { f.abandon(fl) }

// abandon withdraws an incomplete flow (killed sender).
func (f *Fabric) abandon(fl *Flow) {
	if fl.completed {
		return
	}
	f.settle()
	f.remove(fl)
	f.reallocate()
}

func (f *Fabric) remove(fl *Flow) {
	if fl.index < 0 {
		return
	}
	fl.completed = true
	if fl.complete != nil {
		// Lazy cancel: the event stays queued until the kernel pops it, and
		// CancelRecycle hands its allocation back to the pool at that point.
		f.eng.CancelRecycle(fl.complete)
		fl.complete = nil
	}
	// O(1) swap-delete: the flow knows its own slot.
	i, last := fl.index, len(f.flows)-1
	f.flows[i] = f.flows[last]
	f.flows[i].index = i
	f.flows[last] = nil
	f.flows = f.flows[:last]
	fl.index = -1
	for _, l := range fl.path {
		l.nflows--
		f.markDirty(l)
	}
}

// markDirty records that a link's flow set (and hence its effective
// capacity) changed, so the component containing it must be re-solved.
func (f *Fabric) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		f.dirtyLinks = append(f.dirtyLinks, l)
	}
}

func (f *Fabric) clearDirty() {
	for _, l := range f.dirtyLinks {
		l.dirty = false
	}
	f.dirtyLinks = f.dirtyLinks[:0]
}

// settle credits every active flow with the bytes moved since the last rate
// change.
func (f *Fabric) settle() {
	now := f.eng.Now()
	for _, fl := range f.flows {
		dt := (now - fl.updated).Seconds()
		if dt > 0 && fl.rate > 0 {
			fl.remaining -= fl.rate * dt
			if fl.remaining < 0 {
				fl.remaining = 0
			}
		}
		fl.updated = now
	}
}

// reallocate brings rates and completion events up to date after a change.
// Rate recomputation runs only when some link's flow set actually changed;
// the stale-prediction path (a completion event firing at the same instant
// rates moved) needs only a reschedule, because an unchanged flow set
// re-solves to bit-identical rates.
func (f *Fabric) reallocate() {
	if len(f.flows) == 0 {
		f.clearDirty()
		return
	}
	if len(f.dirtyLinks) > 0 {
		f.solve()
		f.clearDirty()
	}
	f.reschedule()
}

// solve recomputes max-min fair rates by progressive filling for every flow
// whose connected component contains a dirty link. Components are computed
// fresh each pass (links only carry epoch-stamped scratch), but flows of
// clean components are never scanned by the filling loop and keep their
// rates: allocations in one component are independent of every other, so
// skipping them is exact, not an approximation.
func (f *Fabric) solve() {
	f.epoch++
	// Pass 1: stamp links with this epoch, count crossing flows, and union
	// each flow's path links into one component.
	f.ufParent = f.ufParent[:0]
	for _, fl := range f.flows {
		first := fl.path[0]
		for _, l := range fl.path {
			if l.epoch != f.epoch {
				l.epoch = f.epoch
				l.unfix = 0
				l.comp = len(f.ufParent)
				f.ufParent = append(f.ufParent, l.comp)
			}
			l.unfix++
			if l != first {
				f.union(first.comp, l.comp)
			}
		}
	}
	// Pass 2: mark components containing a dirty link. Dirty links no
	// longer crossed by any flow (a departed flow's private segment) carry a
	// stale epoch and drop out here.
	if cap(f.compDirty) < len(f.ufParent) {
		f.compDirty = make([]bool, len(f.ufParent))
	}
	f.compDirty = f.compDirty[:len(f.ufParent)]
	for i := range f.compDirty {
		f.compDirty[i] = false
	}
	for _, l := range f.dirtyLinks {
		if l.epoch == f.epoch {
			f.compDirty[f.find(l.comp)] = true
		}
	}
	// Pass 3: gather the flows of dirty components — in arrival order, which
	// is what keeps bottleneck tie-breaking identical to the from-scratch
	// solver — and initialise remaining capacity on the links they cross.
	f.unfixed = f.unfixed[:0]
	for _, fl := range f.flows {
		if !f.compDirty[f.find(fl.path[0].comp)] {
			continue
		}
		f.unfixed = append(f.unfixed, fl)
		for _, l := range fl.path {
			if l.capEpoch == f.epoch {
				continue
			}
			l.capEpoch = f.epoch
			c := float64(l.effectiveCap(l.nflows))
			if !(c > 0) {
				panic(fmt.Sprintf(
					"netsim: link %q effective capacity %v with %d flows; capacity functions must be positive for every n ≥ 1",
					l.name, Bandwidth(c), l.nflows))
			}
			l.capRem = c
		}
	}
	// Pass 4: progressive filling. Each round, the bottleneck is the link
	// whose fair share for its unfixed flows is smallest — scanned in flow
	// arrival order (not map order) so ties resolve stably — and every
	// unfixed flow crossing it is fixed at that share.
	unfixed := f.unfixed
	for len(unfixed) > 0 {
		var bottleneck *Link
		share := math.Inf(1)
		for _, fl := range unfixed {
			for _, l := range fl.path {
				if l.unfix == 0 {
					continue
				}
				s := l.capRem / float64(l.unfix)
				if s < share {
					share = s
					bottleneck = l
				}
			}
		}
		if bottleneck == nil {
			// No constraining link (cannot happen with non-empty paths).
			for _, fl := range unfixed {
				fl.rate = math.Inf(1)
			}
			break
		}
		if share < 0 {
			share = 0
		}
		n := 0
		for _, fl := range unfixed {
			onBottleneck := false
			for _, l := range fl.path {
				if l == bottleneck {
					onBottleneck = true
					break
				}
			}
			if !onBottleneck {
				unfixed[n] = fl
				n++
				continue
			}
			fl.rate = share
			for _, l := range fl.path {
				l.capRem -= share
				if l.capRem < 0 {
					l.capRem = 0
				}
				l.unfix--
			}
		}
		unfixed = unfixed[:n]
	}
}

// find returns the union-find root of scratch node x.
func (f *Fabric) find(x int) int {
	for f.ufParent[x] != x {
		f.ufParent[x] = f.ufParent[f.ufParent[x]] // path halving
		x = f.ufParent[x]
	}
	return x
}

func (f *Fabric) union(a, b int) {
	ra, rb := f.find(a), f.find(b)
	if ra == rb {
		return
	}
	if ra < rb {
		f.ufParent[rb] = ra
	} else {
		f.ufParent[ra] = rb
	}
}

// stampComponents rebuilds the union-find over the current flow set — the
// same pass-1 stamping solve performs — so component queries can run between
// solves. Burning an epoch here is safe: every solve pass restamps all the
// scratch it reads, so an extra epoch bump just looks like one more solve.
func (f *Fabric) stampComponents() {
	f.epoch++
	f.ufParent = f.ufParent[:0]
	for _, fl := range f.flows {
		first := fl.path[0]
		for _, l := range fl.path {
			if l.epoch != f.epoch {
				l.epoch = f.epoch
				l.unfix = 0
				l.comp = len(f.ufParent)
				f.ufParent = append(f.ufParent, l.comp)
			}
			if l != first {
				f.union(first.comp, l.comp)
			}
		}
	}
}

// Components returns the number of connected components in the active flow
// graph: flows are connected when their paths share a link. This is the
// kernel-sharding partition oracle — flows in different components can never
// influence each other's rates (a solve touches exactly one component), so a
// workload whose flow graph stays partitioned into k components is safe to
// split across up to k simulation domains, one fabric per domain, with no
// cross-domain mail. Links no flow currently crosses count toward no
// component.
func (f *Fabric) Components() int {
	f.stampComponents()
	n := 0
	for i := range f.ufParent {
		if f.find(i) == i {
			n++
		}
	}
	return n
}

// SameComponent reports whether two active flows share a connected component
// — whether any chain of overlapping paths couples their rate allocations.
// Flows in different components are independent: domain-sharding them apart
// cannot change either one's trace.
func (f *Fabric) SameComponent(a, b *Flow) bool {
	f.stampComponents()
	return f.find(a.path[0].comp) == f.find(b.path[0].comp)
}

// reschedule brings each flow's completion event in line with its current
// remaining bytes and rate. An event is re-created only when the predicted
// completion time actually moved; an unchanged prediction keeps the
// already-scheduled event, and retired events return to the kernel pool.
func (f *Fabric) reschedule() {
	now := f.eng.Now()
	for _, fl := range f.flows {
		if fl.rate <= 0 {
			// Stalled; a future reallocate will revive it.
			if fl.complete != nil {
				f.eng.CancelRecycle(fl.complete)
				fl.complete = nil
			}
			continue
		}
		var at time.Duration
		if math.IsInf(fl.rate, 1) || fl.remaining <= 0.5 {
			at = now
		} else {
			at = now + time.Duration(fl.remaining/fl.rate*float64(time.Second))
			if at <= now {
				// The prediction rounded down to a zero (or negative)
				// duration while bytes remain outstanding. Scheduling at
				// `now` would fire, settle zero elapsed time, and reallocate
				// right back here — a same-instant ping-pong that never
				// drains the flow. One nanosecond is below any reportable
				// timescale and guarantees progress.
				at = now + 1
			}
		}
		if fl.complete != nil {
			if fl.complete.Time() == at {
				continue
			}
			// Sift the pending event to its new slot in place. The event
			// takes a fresh sequence number, exactly as the old
			// cancel/recycle/schedule round trip did, so traces stay
			// bit-identical while the hot reallocation path skips the heap
			// removal and free-list churn entirely.
			f.eng.Reschedule(fl.complete, at)
			continue
		}
		fl.complete = f.eng.Schedule(at, fl.onFire)
	}
}

func (f *Fabric) onComplete(fl *Flow) {
	ev := fl.complete
	fl.complete = nil
	if ev != nil {
		f.eng.Recycle(ev)
	}
	f.settle()
	if fl.remaining > 0.5 {
		if !math.IsInf(fl.rate, 1) {
			// Prediction went stale (rates changed at this same instant);
			// reallocate will reschedule.
			f.reallocate()
			return
		}
		// An unconstrained flow delivers instantly; zero elapsed time moved
		// no bytes in settle, so finish it by hand rather than ping-pong.
		fl.remaining = 0
	}
	f.remove(fl)
	fl.done.Fire()
	f.reallocate()
}
