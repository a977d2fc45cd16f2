package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// killScenario builds one kill case on e, with the victim either a process
// (flat=false) or an actor (flat=true); everything else is shared code. It
// logs what happens and returns the queue it uses (nil when none), whose
// final state is part of what the twins must agree on.
type killScenario func(e *Engine, flat bool, log *[]string) *Queue[int]

// killTwinState is everything a kill twin run must reproduce exactly.
type killTwinState struct {
	fired, seq uint64
	now        time.Duration
	log        []string
	live       int
	drained    bool
	puts, gets uint64
	items      []int
}

func runKillTwin(sc killScenario, flat bool) killTwinState {
	e := NewEngine()
	var log []string
	q := sc(e, flat, &log)
	e.Run()
	st := killTwinState{
		fired: e.EventsFired(), seq: e.seq, now: e.Now(), log: log,
		live: e.LiveProcs() + e.LiveActors(), drained: e.Drained(),
	}
	if q != nil {
		st.puts, st.gets = q.Puts(), q.Gets()
		st.items = append([]int(nil), q.items.live()...)
	}
	return st
}

// victim is the killed party in either form. Its body runs first (logged
// "start"), then parks via the supplied park step; a kill runs the unwind,
// which logs "unwind@<time>". A process logs the unwind from a deferred
// call, which is what the actor's unwind function stands in for.
func victim(e *Engine, flat bool, log *[]string, at time.Duration,
	parkProc func(p *Proc), parkFlat func(a *Actor, done func())) (kill func()) {
	note := func(s string) { *log = append(*log, s) }
	unwind := func() { note(fmt.Sprint("unwind@", e.Now())) }
	if flat {
		a := &Actor{}
		a.Bind(e, "victim")
		a.GoAt(at, func() {
			note("start")
			parkFlat(a, func() { note("resumed"); a.Finish() })
		})
		return func() { a.Kill(unwind) }
	}
	p := e.SpawnAt(at, "victim", func(p *Proc) {
		defer func() {
			if p.Killed() {
				unwind()
			}
		}()
		note("start")
		parkProc(p)
		note("resumed")
	})
	return p.Kill
}

// TestActorKillMatchesProcKill is the kernel twin pin: for each kill case,
// an actor killed with Actor.Kill and a process killed with Proc.Kill give
// equal event counts, sequence numbers, clocks, logs and final queue state.
func TestActorKillMatchesProcKill(t *testing.T) {
	cases := map[string]killScenario{
		"sleeping": func(e *Engine, flat bool, log *[]string) *Queue[int] {
			kill := victim(e, flat, log, 0,
				func(p *Proc) { p.Sleep(10 * time.Second) },
				func(a *Actor, done func()) { a.Sleep(10*time.Second, done) })
			e.Schedule(3*time.Second, func() { kill(); *log = append(*log, "killed") })
			e.Schedule(3*time.Second, func() { *log = append(*log, "bystander") })
			return nil
		},
		"parked-on-get": func(e *Engine, flat bool, log *[]string) *Queue[int] {
			q := NewQueue[int]()
			got := func(v int) { *log = append(*log, fmt.Sprint("victim got ", v)) }
			kill := victim(e, flat, log, 0,
				func(p *Proc) { got(q.Get(p)) },
				func(a *Actor, done func()) { q.GetFlat(a, func(v int) { got(v); done() }) })
			e.Spawn("consumer", func(p *Proc) {
				*log = append(*log, fmt.Sprint("consumer got ", q.Get(p), " at ", p.Now()))
			})
			e.Schedule(3*time.Second, func() { kill() })
			e.Schedule(4*time.Second, func() { q.Put(7) })
			return q
		},
		"handed-over": func(e *Engine, flat bool, log *[]string) *Queue[int] {
			q := NewQueue[int]()
			got := func(v int) { *log = append(*log, fmt.Sprint("victim got ", v)) }
			kill := victim(e, flat, log, 0,
				func(p *Proc) { got(q.Get(p)) },
				func(a *Actor, done func()) { q.GetFlat(a, func(v int) { got(v); done() }) })
			e.Spawn("consumer", func(p *Proc) {
				*log = append(*log, fmt.Sprint("consumer got ", q.Get(p)))
			})
			// 1 is handed to the victim and 2 to the consumer in the same
			// event that kills the victim: 1 must go back to the head.
			e.Schedule(3*time.Second, func() {
				q.Put(1)
				q.Put(2)
				q.Put(3)
				kill()
			})
			e.Schedule(5*time.Second, func() {
				v, _ := q.TryGet()
				*log = append(*log, fmt.Sprint("head after kill ", v))
			})
			return q
		},
		"before-first-step": func(e *Engine, flat bool, log *[]string) *Queue[int] {
			kill := victim(e, flat, log, 5*time.Second,
				func(p *Proc) { p.Sleep(time.Second) },
				func(a *Actor, done func()) { a.Sleep(time.Second, done) })
			e.Schedule(time.Second, func() { kill() })
			e.Schedule(6*time.Second, func() { *log = append(*log, "after") })
			return nil
		},
		"parked-on-signal": func(e *Engine, flat bool, log *[]string) *Queue[int] {
			var sig Signal
			kill := victim(e, flat, log, 0,
				func(p *Proc) { sig.Wait(p) },
				func(a *Actor, done func()) { sig.WaitFlat(a, done) })
			e.Schedule(2*time.Second, func() { kill() })
			e.Schedule(3*time.Second, func() {
				sig.Fire()
				*log = append(*log, fmt.Sprint("waiters after kill ", sig.Waiting()))
			})
			return nil
		},
	}
	for name, sc := range cases {
		t.Run(name, func(t *testing.T) {
			proc, flat := runKillTwin(sc, false), runKillTwin(sc, true)
			if !reflect.DeepEqual(proc, flat) {
				t.Fatalf("proc kill and actor kill diverge:\nproc %+v\nflat %+v", proc, flat)
			}
			if !proc.drained || proc.live != 0 {
				t.Fatalf("killed victim still live: %+v", proc)
			}
		})
	}
}

// TestActorKillBeforeFirstStepSkipsUnwind checks an actor killed before its
// first step never runs it or its unwind, and still finishes at the first
// event's time.
func TestActorKillBeforeFirstStepSkipsUnwind(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "never")
	ran := false
	a.GoAt(time.Second, func() { ran = true; a.Finish() })
	a.Kill(func() { ran = true })
	a.Kill(nil) // second kill: no-op
	if !a.Live() {
		t.Fatal("actor killed before its first step is not live until that step's event")
	}
	e.Run()
	if ran || a.Live() || !e.Drained() || e.EventsFired() != 1 {
		t.Fatalf("ran=%v live=%v drained=%v fired=%d", ran, a.Live(), e.Drained(), e.EventsFired())
	}
}

// TestActorKillFromOwnStepPanics pins the contract that Kill comes from
// another party.
func TestActorKillFromOwnStepPanics(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "suicidal")
	a.Go(func() { a.Sleep(time.Second, func() { a.Kill(nil) }) })
	defer func() {
		if recover() == nil {
			t.Fatal("Kill from the actor's own step did not panic")
		}
	}()
	e.Run()
}

// TestQueueGetReadyZeroAlloc checks that a Get or GetFlat with an item ready
// allocates nothing once invariants are off — the conservation check must
// not box its arguments for a harness that is not there.
func TestQueueGetReadyZeroAlloc(t *testing.T) {
	const n = 256
	e := NewEngine()
	e.inv = nil
	q := NewQueue[uint64]()
	for i := 0; i < 4*n; i++ {
		q.Put(uint64(i) << 40)
	}
	var a Actor
	a.Bind(e, "flat")
	var sum uint64
	then := func(v uint64) { sum += v }
	if got := testing.AllocsPerRun(n, func() { q.GetFlat(&a, then) }); got != 0 {
		t.Errorf("GetFlat with an item ready: %v allocs, want 0", got)
	}
	var procAllocs float64
	e.Spawn("get", func(p *Proc) {
		procAllocs = testing.AllocsPerRun(n, func() { sum += q.Get(p) })
	})
	e.Run()
	if procAllocs != 0 {
		t.Errorf("Get with an item ready: %v allocs, want 0", procAllocs)
	}
}

// TestQueueGetFlatParkZeroAlloc checks the parking path recycles its
// waiters: a consumer actor that parks on every item and a producer that
// feeds it allocate nothing at steady state.
func TestQueueGetFlatParkZeroAlloc(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var cons, prod Actor
	cons.Bind(e, "consumer")
	prod.Bind(e, "producer")
	got := 0
	var onItem func(int)
	wait := func() { q.GetFlat(&cons, onItem) }
	onItem = func(int) {
		got++
		wait()
	}
	cons.Go(wait)
	var tick func()
	tick = func() {
		q.Put(got)
		prod.Sleep(time.Millisecond, tick)
	}
	prod.Go(tick)
	e.RunUntil(10 * time.Millisecond) // warm-up

	allocs := testing.AllocsPerRun(1, func() { e.RunUntil(e.Now() + time.Second) })
	if allocs > 4 {
		t.Fatalf("1000 park/hand-over cycles allocated %v times, want ~0", allocs)
	}
	if got < 1000 || q.Waiting() != 1 {
		t.Fatalf("got %d items, %d waiting", got, q.Waiting())
	}
}

// TestEngineTeardown checks Teardown retires suspended processes through
// their kill unwind — deferred repairs run, a handed-over item goes back,
// workers exit — and leaves never-started processes alone.
func TestEngineTeardown(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	tokens := NewQueue[int]()
	var sig Signal
	unwound := 0
	// One consumer per parking primitive, plus one holding a token whose
	// unwind re-puts it (tryReceive's shape).
	e.Spawn("get", func(p *Proc) {
		defer func() { unwound++ }()
		q.Get(p)
		t.Error("get consumer resumed")
	})
	e.Spawn("sleep", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Hour)
	})
	e.Spawn("signal", func(p *Proc) {
		defer func() { unwound++ }()
		sig.Wait(p)
	})
	e.Spawn("token", func(p *Proc) {
		tok := tokens.Get(p)
		defer func() {
			if recover() != nil {
				tokens.Put(tok)
				unwound++
			}
		}()
		p.Sleep(time.Hour)
	})
	e.Spawn("token-waiter", func(p *Proc) {
		defer func() { unwound++ }()
		tokens.Get(p)
		tokens.Get(p)
	})
	e.SpawnAt(time.Hour, "never-started", func(p *Proc) { t.Error("never-started ran") })
	e.Schedule(time.Second, func() { tokens.Put(1) })
	e.RunUntil(2 * time.Second)
	if e.LiveProcs() != 6 {
		t.Fatalf("LiveProcs = %d before teardown, want 6", e.LiveProcs())
	}
	e.Teardown()
	if unwound != 5 {
		t.Fatalf("%d deferred unwinds ran, want 5", unwound)
	}
	if e.busy != nil || e.LiveProcs() != 1 {
		t.Fatalf("busy list %v, LiveProcs %d after teardown, want empty and 1", e.busy, e.LiveProcs())
	}
	if tokens.Len() != 1 || tokens.Puts() != tokens.Gets()+1 {
		t.Fatalf("token queue after teardown: len %d puts %d gets %d", tokens.Len(), tokens.Puts(), tokens.Gets())
	}
	if e.workersLive != 0 {
		t.Fatalf("%d workers live after teardown", e.workersLive)
	}
}
