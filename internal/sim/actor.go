package sim

import "time"

// Actor is the flat counterpart of a process: a client-scale activity
// compiled into a continuation-passing state machine that the kernel drives
// directly, with no goroutine, no handoff channels and no Proc descriptor.
// Where a Proc blocks (Sleep, Signal.Wait, Queue.Get), an Actor instead
// *arms* a continuation — a cached step function run by the next wake event
// — and returns to the kernel. The entire per-actor cost is this struct plus
// one cached trampoline closure; a million parked actors cost megabytes,
// not the gigabytes of stacks a million parked goroutines would.
//
// Equivalence with the process API is exact by construction: every point
// where a process schedules a kernel event (the spawn start event, a sleep's
// wake, a signal fire's or queue put's wake, a kill's unwind) the actor
// schedules exactly one event through the same engine-owned reclaim path,
// consuming the same sequence number the process path would. A driver ported
// from Spawn to Go/Sleep/WaitFlat/GetFlat therefore produces a bit-identical
// trace. See DESIGN.md §11 for when to use which API.
//
// Discipline: every step must either arm a continuation (Sleep, a WaitFlat
// or GetFlat registration, or a nested flat call that does so) or call
// Finish before returning; a step that does neither has silently leaked the
// actor, and the trampoline panics.
//
// Kill/unwind contract: Kill is the flat mirror of Proc.Kill, made by
// another party from kernel context. It cancels the actor's pending wake,
// takes it off the wait list it is parked on, and schedules one event at
// the current instant — where Proc.Kill schedules the killed process's
// resume. That event first undoes a queue handover the kill pre-empted (the
// item goes back to the head of the queue, as a killed Queue.Get's unwind
// does), then runs the unwind function given to Kill, then finishes the
// actor. The unwind is the caller's stand-in for the deferred calls a
// blocking body would run while panicking out: it must undo exactly what
// those would, in the same order (innermost first). An actor killed before
// its first step never runs it, and its unwind never runs: the pending first
// event fires and only finishes the actor, as a killed process's start event
// does.
type Actor struct {
	eng    *Engine
	name   string
	daemon bool
	live   bool // started (Go) and not yet finished
	armed  bool // a continuation is registered for the next wake
	killed bool // Kill was called in this run
	begun  bool // the first step has run
	next   func()
	wake   *Event // pending wake event, nil while externally parked
	onWake func() // cached trampoline; the only closure an actor allocates

	// park is the wait list the actor is parked on (a queue waiter or a
	// signal), nil otherwise; Kill uses it to detach and unwind.
	park flatPark

	// waiter is the actor's embedded signal waiter, reused across WaitFlat
	// registrations so parking on a signal allocates nothing. One signal
	// wait may be outstanding at a time.
	waiter sigWaiter
}

// flatPark is a wait-list registration an actor can be killed out of:
// detach runs at kill time (leave the list, as a process's detach does),
// unwind runs in the kill event (undo a handover the kill pre-empted, as a
// killed process's deferred repair does).
type flatPark interface {
	detachFlat(a *Actor)
	unwindFlat(a *Actor)
}

// Bind attaches the actor to an engine and allocates its trampoline. It
// must be called once, before Go. name labels kernel panics.
func (a *Actor) Bind(e *Engine, name string) {
	if a.eng != nil {
		panic("sim: Actor bound twice")
	}
	a.eng = e
	a.name = name
	a.onWake = a.step
}

// BindDaemon is Bind for a daemon actor — the flat mirror of SpawnDaemon:
// it runs like any actor while the simulation is alive, but neither its
// wake events nor its liveness keep Run going.
func (a *Actor) BindDaemon(e *Engine, name string) {
	a.Bind(e, name)
	a.daemon = true
}

// Engine returns the engine the actor is bound to.
func (a *Actor) Engine() *Engine { return a.eng }

// Now returns the engine's current virtual time.
func (a *Actor) Now() time.Duration { return a.eng.now }

// Name returns the label given to Bind.
func (a *Actor) Name() string { return a.name }

// Live reports whether the actor has started and not yet finished.
func (a *Actor) Live() bool { return a.live }

// Go starts the actor: first runs at the current virtual time, scheduled
// exactly as a process spawn's start event would be. The actor counts as
// foreground work until Finish.
func (a *Actor) Go(first func()) { a.GoAt(a.eng.now, first) }

// GoAt starts the actor at absolute virtual time at.
func (a *Actor) GoAt(at time.Duration, first func()) {
	if a.eng == nil {
		panic("sim: Actor not bound")
	}
	if a.live {
		panic("sim: Actor " + a.name + " started twice")
	}
	a.live = true
	a.killed = false
	a.begun = false
	if !a.daemon {
		a.eng.flats++
	}
	a.armEvent(at, first)
}

// Sleep arms then to run d from now — the actor-side mirror of Proc.Sleep,
// scheduling one wake event through the same engine-owned path.
func (a *Actor) Sleep(d time.Duration, then func()) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	a.armEvent(a.eng.now+d, then)
}

// Finish ends the actor. It may start again with Go (the trampoline and
// engine binding are retained).
func (a *Actor) Finish() {
	if !a.live {
		panic("sim: Finish of an actor that is not live")
	}
	a.live = false
	if !a.daemon {
		a.eng.flats--
	}
}

// Kill terminates the actor at its current suspension point; see the
// kill/unwind contract on Actor. unwind (may be nil) runs in the kill event.
// Killing an actor that is not live, or twice, is a no-op. Kill must come
// from outside the actor's own steps: a step ends by arming or finishing.
func (a *Actor) Kill(unwind func()) {
	if !a.live || a.killed {
		return
	}
	a.killed = true
	if !a.begun {
		// The first event stays pending; the trampoline sees killed and
		// only finishes the actor, as a killed process's start event does.
		return
	}
	if !a.armed {
		panic("sim: Kill of actor " + a.name + " from inside its own step")
	}
	if a.wake != nil {
		// Lazy cancel of an engine-owned event, as Proc.Kill does.
		a.eng.Cancel(a.wake)
		a.wake = nil
	}
	if a.park != nil {
		a.park.detachFlat(a)
	}
	a.armed = false
	a.next = nil
	// Kills are rare: the kill event's closure is made here, not cached.
	a.wake = a.eng.scheduleOwned(a.eng.now, func() { a.killStep(unwind) }, a.daemon, true)
}

// killStep is the kill event's body: undo a pre-empted queue handover, run
// the caller's unwind, finish.
func (a *Actor) killStep(unwind func()) {
	a.wake = nil
	if pk := a.park; pk != nil {
		a.park = nil
		pk.unwindFlat(a)
	}
	if unwind != nil {
		unwind()
	}
	a.Finish()
}

// armEvent registers then and schedules the wake that runs it.
func (a *Actor) armEvent(at time.Duration, then func()) {
	a.arm(then)
	a.wake = a.eng.scheduleOwned(at, a.onWake, a.daemon, true)
}

// arm registers then as the continuation without scheduling anything; the
// wake comes from outside (a signal fire, a queue put, a completing flow).
// Kernel primitives call this; drivers use Sleep / WaitFlat / GetFlat.
func (a *Actor) arm(then func()) {
	if a.armed {
		panic("sim: actor " + a.name + " armed twice")
	}
	if then == nil {
		panic("sim: actor " + a.name + " armed with nil continuation")
	}
	a.armed = true
	a.next = then
}

// wakeNow schedules the externally armed continuation to run at the current
// instant — the actor-side mirror of Proc.wakeNow, used by Signal.Fire and
// Queue.Put.
func (a *Actor) wakeNow() {
	if a.wake != nil {
		panic("sim: double wake of actor " + a.name)
	}
	if !a.armed {
		panic("sim: wake of actor " + a.name + " with no continuation armed")
	}
	a.wake = a.eng.scheduleOwned(a.eng.now, a.onWake, a.daemon, true)
}

// step is the trampoline every wake event runs: consume the armed
// continuation, execute it, and enforce the arm-or-finish discipline.
func (a *Actor) step() {
	a.wake = nil
	a.armed = false
	a.park = nil
	fn := a.next
	a.next = nil
	if a.killed {
		// Killed before its first step ran: never run it.
		a.Finish()
		return
	}
	a.begun = true
	fn()
	if a.live && !a.armed {
		panic("sim: actor " + a.name + " step returned without arming a continuation or calling Finish")
	}
}
