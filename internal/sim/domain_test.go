package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// domainTrace records one fired step of a scripted workload for trace
// comparison: which unit, which step, and the virtual instant it ran at.
type domainTrace struct {
	unit int
	step int
	at   time.Duration
}

// runPingUnit spawns a self-contained workload on e: a little proc chain that
// sleeps pseudo-random (but unit-deterministic) intervals and appends to out.
// The same unit started on any engine produces the same relative trace.
func runPingUnit(e *Engine, unit, steps int, out *[]domainTrace) {
	e.Spawn(fmt.Sprintf("unit%d", unit), func(p *Proc) {
		for s := 0; s < steps; s++ {
			d := time.Duration((unit*7+s*13)%17+1) * time.Millisecond
			p.Sleep(d)
			*out = append(*out, domainTrace{unit: unit, step: s, at: p.Now()})
		}
	})
}

// TestDomainSingleDegenerates pins the zero-cost path: a one-domain group
// runs the member inline and produces exactly the standalone engine's trace,
// clock, event count and round count 1.
func TestDomainSingleDegenerates(t *testing.T) {
	var solo []domainTrace
	se := NewEngine()
	for u := 0; u < 4; u++ {
		runPingUnit(se, u, 6, &solo)
	}
	se.Run()

	var grouped []domainTrace
	g := NewDomains(1)
	for u := 0; u < 4; u++ {
		runPingUnit(g.Domain(0), u, 6, &grouped)
	}
	g.Run()

	if len(solo) != len(grouped) {
		t.Fatalf("trace length: solo %d grouped %d", len(solo), len(grouped))
	}
	for i := range solo {
		if solo[i] != grouped[i] {
			t.Fatalf("trace[%d]: solo %+v grouped %+v", i, solo[i], grouped[i])
		}
	}
	if se.EventsFired() != g.EventsFired() {
		t.Fatalf("events fired: solo %d grouped %d", se.EventsFired(), g.EventsFired())
	}
	if se.Now() != g.Now() {
		t.Fatalf("clock: solo %v grouped %v", se.Now(), g.Now())
	}
	if g.Rounds() != 1 {
		t.Fatalf("single unbounded domain took %d rounds, want 1", g.Rounds())
	}
	if !g.Drained() {
		t.Fatal("group not drained after Run")
	}
}

// TestDomainDisjointEquivalence is the core tentpole property: N disjoint
// units sharded across domains produce, per unit, exactly the trace the unit
// produces alone on its own engine — unbounded and under a small window, at
// several widths.
func TestDomainDisjointEquivalence(t *testing.T) {
	const units, steps = 8, 10

	// Reference: each unit alone on a standalone engine.
	ref := make([][]domainTrace, units)
	for u := 0; u < units; u++ {
		e := NewEngine()
		runPingUnit(e, u, steps, &ref[u])
		e.Run()
	}

	for _, n := range []int{1, 2, 4, 8} {
		for _, window := range []time.Duration{0, 5 * time.Millisecond, time.Second} {
			got := make([][]domainTrace, units)
			g := NewDomains(n)
			g.SetWindow(window)
			for u := 0; u < units; u++ {
				runPingUnit(g.Domain(u%n), u, steps, &got[u])
			}
			g.Run()
			for u := 0; u < units; u++ {
				if len(got[u]) != len(ref[u]) {
					t.Fatalf("n=%d window=%v unit %d: %d steps, want %d",
						n, window, u, len(got[u]), len(ref[u]))
				}
				for i := range ref[u] {
					if got[u][i] != ref[u][i] {
						t.Fatalf("n=%d window=%v unit %d trace[%d]: got %+v want %+v",
							n, window, u, i, got[u][i], ref[u][i])
					}
				}
			}
			if !g.Drained() {
				t.Fatalf("n=%d window=%v: not drained", n, window)
			}
			if window > 0 && g.Rounds() < 2 && n > 1 {
				// 10 steps of ≥1ms sleeps under a 5ms window must cross
				// boundaries; the 1s window legitimately takes one round.
				if window < 100*time.Millisecond {
					t.Fatalf("n=%d window=%v: only %d rounds", n, window, g.Rounds())
				}
			}
		}
	}
}

// TestDomainMailDeterminism runs a two-domain ping-pong over the boundary
// mailbox twice and asserts identical traces, delivery counts and rounds.
func TestDomainMailDeterminism(t *testing.T) {
	run := func() ([]string, uint64, int) {
		var log []string
		g := NewDomains(2)
		g.SetWindow(10 * time.Millisecond)
		var volley func(from, hops int) func()
		volley = func(from, hops int) func() {
			return func() {
				self := 1 - from
				e := g.Domain(self)
				log = append(log, fmt.Sprintf("hop%d@dom%d@%v", hops, self, e.Now()))
				if hops < 6 {
					e.Send(from, volley(self, hops+1))
				}
			}
		}
		// Seed the rally from domain 0's own event so the first Send happens
		// in kernel context during round 1.
		g.Domain(0).Schedule(3*time.Millisecond, func() {
			g.Domain(0).Send(1, volley(0, 1))
		})
		g.Run()
		return log, g.MailDelivered(), g.Rounds()
	}

	log1, mail1, rounds1 := run()
	log2, mail2, rounds2 := run()
	if strings.Join(log1, ";") != strings.Join(log2, ";") {
		t.Fatalf("mail trace not reproducible:\n%v\n%v", log1, log2)
	}
	if mail1 != mail2 || rounds1 != rounds2 {
		t.Fatalf("accounting not reproducible: mail %d/%d rounds %d/%d", mail1, mail2, rounds1, rounds2)
	}
	// The seed send plus hops 1..5 re-sending: six deliveries, six hops
	// logged, each landing at a successive window boundary.
	if mail1 != 6 || len(log1) != 6 {
		t.Fatalf("delivered %d mailbox events over %d hops, want 6 and 6", mail1, len(log1))
	}
}

// TestDomainMailMergeOrder pins the deterministic merge: sends queued by
// several source domains in one round are delivered in (source domain index,
// send order) order, regardless of goroutine interleaving during the round.
func TestDomainMailMergeOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var order []string
		g := NewDomains(4)
		g.SetWindow(time.Millisecond)
		// Domains 1..3 each send two messages to domain 0 during round one.
		// Source 3 schedules its kernel event earliest in virtual time —
		// merge order must still be by domain index, not by send time.
		for src := 1; src < 4; src++ {
			src := src
			at := time.Duration(4-src) * 100 * time.Microsecond
			g.Domain(src).Schedule(at, func() {
				for k := 0; k < 2; k++ {
					k := k
					g.Domain(src).Send(0, func() {
						order = append(order, fmt.Sprintf("src%d/%d", src, k))
					})
				}
			})
		}
		g.Run()
		want := "src1/0;src1/1;src2/0;src2/1;src3/0;src3/1"
		if got := strings.Join(order, ";"); got != want {
			t.Fatalf("trial %d merge order:\ngot  %s\nwant %s", trial, got, want)
		}
	}
}

// TestDomainWindowBoundary pins the half-open window: an event at exactly
// T+W belongs to the next round, and boundary mail lands at the boundary.
func TestDomainWindowBoundary(t *testing.T) {
	g := NewDomains(2)
	const w = 10 * time.Millisecond
	g.SetWindow(w)

	var fired []time.Duration
	e0 := g.Domain(0)
	e0.Schedule(w-time.Nanosecond, func() { fired = append(fired, e0.Now()) }) // round 1
	e0.Schedule(w, func() { fired = append(fired, e0.Now()) })                 // exactly at boundary → round 2
	e0.Schedule(w+time.Nanosecond, func() { fired = append(fired, e0.Now()) }) // round 2

	var mailAt time.Duration = -1
	g.Domain(1).Schedule(time.Millisecond, func() {
		g.Domain(1).Send(0, func() { mailAt = g.Domain(0).Now() })
	})
	g.Run()

	want := []time.Duration{w - time.Nanosecond, w, w + time.Nanosecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want events at %v", fired, want)
	}
	for i, at := range want {
		if fired[i] != at {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], at)
		}
	}
	if mailAt != w {
		t.Fatalf("boundary mail delivered at %v, want %v", mailAt, w)
	}
	if g.Rounds() < 2 {
		t.Fatalf("boundary-straddling run took %d rounds, want >= 2", g.Rounds())
	}
}

// TestDomainWindowSkipAhead: a huge gap between event clusters must not cost
// one round per empty window.
func TestDomainWindowSkipAhead(t *testing.T) {
	g := NewDomains(2)
	g.SetWindow(time.Millisecond)
	for i := 0; i < 2; i++ {
		e := g.Domain(i)
		e.Schedule(time.Duration(i)*100*time.Microsecond, func() {})
		e.Schedule(time.Hour+time.Duration(i)*100*time.Microsecond, func() {})
	}
	g.Run()
	// An hour of 1ms windows is 3.6M rounds if walked naively; skip-ahead
	// needs a handful.
	if g.Rounds() > 4 {
		t.Fatalf("sparse calendar took %d rounds, want <= 4", g.Rounds())
	}
}

// TestDomainPanicPropagation: a panic inside any domain's round (here a proc
// panic, which the member kernel re-raises on its round goroutine) surfaces
// from Domains.Run, lowest domain index first, with workers released.
func TestDomainPanicPropagation(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewDomains(4)
	for i := 0; i < 4; i++ {
		i := i
		g.Domain(i).Spawn("worker", func(p *Proc) {
			p.Sleep(time.Millisecond)
			if i >= 2 {
				panic(fmt.Sprintf("boom-dom%d", i))
			}
			p.Sleep(time.Millisecond)
		})
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		g.Run()
		return nil
	}()
	if got == nil {
		t.Fatal("Domains.Run did not propagate the domain panic")
	}
	if s, ok := got.(string); !ok || !strings.Contains(s, "boom-dom2") {
		t.Fatalf("propagated %v, want the lowest-index panic boom-dom2", got)
	}
	// Give retired worker goroutines a moment to exit, then check none leaked.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after panic unwind, %d before — workers leaked", now, before)
	}
}

// TestDomainStuckRunReturns: a domain whose processes can never advance (live
// proc, empty calendar) must not spin the coordinator; Run returns with the
// group undrained, mirroring a leaked process under Engine.Run.
func TestDomainStuckRunReturns(t *testing.T) {
	g := NewDomains(2)
	var sig Signal
	g.Domain(0).Spawn("parked", func(p *Proc) {
		sig.Wait(p) // never fired
	})
	g.Domain(1).Spawn("fine", func(p *Proc) { p.Sleep(time.Millisecond) })

	done := make(chan struct{})
	go func() { g.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Domains.Run looped on a stuck domain")
	}
	if g.Drained() {
		t.Fatal("group reports drained with a parked process leaked")
	}
	if g.Domain(1).Now() != time.Millisecond {
		t.Fatalf("healthy domain stopped at %v", g.Domain(1).Now())
	}
}

// TestDomainWorkerReuseAcrossRounds: parked proc workers survive window
// barriers — rounds must not retire and respawn the pool.
func TestDomainWorkerReuse(t *testing.T) {
	g := NewDomains(2)
	g.SetWindow(time.Millisecond)
	for i := 0; i < 2; i++ {
		e := g.Domain(i)
		e.Spawn("driver", func(p *Proc) {
			for s := 0; s < 50; s++ {
				p.Sleep(time.Millisecond) // one window boundary per step
			}
		})
	}
	g.Run()
	if g.Rounds() < 25 {
		t.Fatalf("expected many rounds, got %d", g.Rounds())
	}
	for i := 0; i < 2; i++ {
		e := g.Domain(i)
		if e.WorkersCreated() > 2 {
			t.Fatalf("domain %d created %d workers across %d rounds; pool not reused",
				i, e.WorkersCreated(), g.Rounds())
		}
	}
}

// TestDomainSendOutsideGroup: Send panics on a standalone engine and on a
// bad destination index.
func TestDomainSendValidation(t *testing.T) {
	e := NewEngine()
	mustPanic(t, "Send outside group", func() { e.Send(0, func() {}) })
	g := NewDomains(2)
	mustPanic(t, "Send out of range", func() { g.Domain(0).Send(2, func() {}) })
	mustPanic(t, "Send nil fn", func() { g.Domain(0).Send(1, nil) })
	mustPanic(t, "NewDomains(0)", func() { NewDomains(0) })
	mustPanic(t, "negative window", func() { g.SetWindow(-1) })
}

// TestDomainStats sanity-checks the coordinator accounting surface.
func TestDomainStats(t *testing.T) {
	g := NewDomains(2)
	g.SetWindow(time.Millisecond)
	for i := 0; i < 2; i++ {
		runPingUnit(g.Domain(i), i, 20, new([]domainTrace))
	}
	g.Run()
	s := g.Stats()
	if s.Domains != 2 || s.Rounds != g.Rounds() || len(s.PerDomainBusy) != 2 {
		t.Fatalf("stats shape: %+v", s)
	}
	if s.Wall <= 0 || s.Busy <= 0 {
		t.Fatalf("stats timing not recorded: %+v", s)
	}
	if u := s.Utilization(); u <= 0 || u > 1.0001 {
		t.Fatalf("utilization %v out of range", u)
	}
	var acc DomainAccum
	acc.Add(s)
	acc.Add(s)
	if acc.Groups != 2 || acc.Width != 2 || acc.Rounds != 2*s.Rounds {
		t.Fatalf("accum: groups=%d width=%d rounds=%d", acc.Groups, acc.Width, acc.Rounds)
	}
	if u := acc.Utilization(); u <= 0 || u > 1.0001 {
		t.Fatalf("accum utilization %v out of range", u)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// crewGoroutines counts live round-worker goroutines in a full stack dump.
func crewGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*roundCrew).work")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitGoroutines polls until the goroutine count is back to before and no
// round worker remains: joined goroutines finish exiting asynchronously.
func waitGoroutines(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for (runtime.NumGoroutine() > before || crewGoroutines() > 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now, crew := runtime.NumGoroutine(), crewGoroutines(); now > before || crew > 0 {
		t.Fatalf("%s: %d goroutines after, %d before, %d round workers left", what, now, before, crew)
	}
}

// TestDomainCrewJoined: the round workers live exactly as long as one Run or
// RunUntil call — after a normal return, a horizon return and a propagated
// domain panic, the goroutine count is back where it started.
func TestDomainCrewJoined(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		before := runtime.NumGoroutine()
		g := NewDomains(n)
		g.SetWindow(time.Millisecond)
		for i := 0; i < n; i++ {
			runPingUnit(g.Domain(i), i, 8, new([]domainTrace))
		}
		if crewGoroutines() != 0 {
			t.Fatalf("n=%d: NewDomains started round workers", n)
		}
		g.Run()
		waitGoroutines(t, fmt.Sprintf("n=%d Run", n), before)

		g = NewDomains(n)
		g.SetWindow(time.Millisecond)
		for i := 0; i < n; i++ {
			runPingUnit(g.Domain(i), i, 8, new([]domainTrace))
		}
		g.RunUntil(time.Second) // past the units' last step: no proc left parked
		waitGoroutines(t, fmt.Sprintf("n=%d RunUntil", n), before)

		g = NewDomains(n)
		g.SetWindow(time.Millisecond)
		for i := 0; i < n; i++ {
			i := i
			g.Domain(i).Spawn("w", func(p *Proc) {
				p.Sleep(time.Duration(i+1) * time.Millisecond)
				if i == n-1 {
					panic("boom")
				}
			})
		}
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "boom") {
					t.Fatalf("n=%d: recovered %q, want the domain's boom", n, r)
				}
			}()
			g.Run()
		}()
		waitGoroutines(t, fmt.Sprintf("n=%d panic", n), before)
	}
}

// rallyTrace runs balls that hop between nodes over boundary mail under a 1ns
// window — one coordinator round per hop — and returns each ball's journey,
// the events fired and the rounds taken. Node k lives on domain k%width;
// each ball's route is fixed, so the journeys are width-invariant.
func rallyTrace(width, balls, nodes, hops int) ([][]string, uint64, int) {
	g := NewDomains(width)
	g.SetWindow(time.Nanosecond)
	journey := make([][]string, balls)
	var arrive func(b, node, hop int) func()
	arrive = func(b, node, hop int) func() {
		return func() {
			e := g.Domain(node % width)
			journey[b] = append(journey[b], fmt.Sprintf("%d@%v", node, e.Now()))
			if hop == hops {
				return
			}
			// A local event between arrival and send keeps each domain's
			// calendar busy within the round, not just its mail batch.
			e.Schedule(e.Now(), func() {
				next := (node + 1 + (b+hop)%(nodes-1)) % nodes
				e.Send(next%width, arrive(b, next, hop+1))
			})
		}
	}
	for b := 0; b < balls; b++ {
		b := b
		e := g.Domain(b % nodes % width)
		e.Schedule(0, func() { e.Send(b%nodes%width, arrive(b, b%nodes, 0)) })
	}
	g.Run()
	return journey, g.EventsFired(), g.Rounds()
}

// TestDomainBarrierStress drives ≥20k one-nanosecond rounds of mail crossing
// every domain and requires the d=1 journeys and event count at widths 2, 4
// and 8. Under -race it doubles as the barrier's race and lost-wake-up
// check: a missed wake-up hangs a round, which the deadline turns into a
// failure.
func TestDomainBarrierStress(t *testing.T) {
	const balls, nodes, hops = 8, 8, 20000
	want, wantFired, wantRounds := rallyTrace(1, balls, nodes, hops)
	if wantRounds < hops {
		t.Fatalf("d=1 took %d rounds, want ≥ %d", wantRounds, hops)
	}
	for _, n := range []int{2, 4, 8} {
		type result struct {
			journey [][]string
			fired   uint64
			rounds  int
		}
		ch := make(chan result, 1)
		go func() {
			j, f, r := rallyTrace(n, balls, nodes, hops)
			ch <- result{j, f, r}
		}()
		var got result
		select {
		case got = <-ch:
		case <-time.After(2 * time.Minute):
			t.Fatalf("n=%d: rally did not finish — round barrier hung", n)
		}
		if got.fired != wantFired || got.rounds != wantRounds {
			t.Fatalf("n=%d: fired %d rounds %d, want %d and %d", n, got.fired, got.rounds, wantFired, wantRounds)
		}
		for b := range want {
			if strings.Join(got.journey[b], ";") != strings.Join(want[b], ";") {
				t.Fatalf("n=%d ball %d: journey diverges from d=1", n, b)
			}
		}
	}
}

// TestDomainRunUntilThenRun: one group can run to a horizon and then to
// drain; each call gets its own crew, and the split run matches d=1.
func TestDomainRunUntilThenRun(t *testing.T) {
	run := func(n int) ([][]domainTrace, []*roundCrew) {
		g := NewDomains(n)
		g.SetWindow(time.Millisecond)
		traces := make([][]domainTrace, 8)
		var crews []*roundCrew
		for u := range traces {
			runPingUnit(g.Domain(u%n), u, 12, &traces[u])
		}
		for _, at := range []time.Duration{5 * time.Millisecond, 50 * time.Millisecond} {
			e := g.Domain(n - 1)
			e.Schedule(at, func() { crews = append(crews, g.crew) })
		}
		g.RunUntil(20 * time.Millisecond)
		if g.crew != nil {
			t.Fatalf("n=%d: crew survived RunUntil", n)
		}
		g.Run()
		if !g.Drained() {
			t.Fatalf("n=%d: not drained", n)
		}
		return traces, crews
	}
	want, _ := run(1)
	for _, n := range []int{2, 4, 8} {
		got, crews := run(n)
		for u := range want {
			if fmt.Sprint(got[u]) != fmt.Sprint(want[u]) {
				t.Fatalf("n=%d unit %d: split run diverges from d=1", n, u)
			}
		}
		if len(crews) != 2 || crews[0] == nil || crews[1] == nil || crews[0] == crews[1] {
			t.Fatalf("n=%d: crews %v, want two distinct per-call crews", n, crews)
		}
	}
}

// TestDomainRoundGoexit: a kernel callback that leaves its goroutine with
// runtime.Goexit neither hangs the barrier nor leaks round workers. On a
// round worker it surfaces as that domain's panic; on the coordinator
// (domain 0 runs inline) it unwinds Run, which still joins the crew.
func TestDomainRoundGoexit(t *testing.T) {
	for _, dom := range []int{1, 0} {
		before := runtime.NumGoroutine()
		g := NewDomains(4)
		g.SetWindow(time.Millisecond)
		for i := 0; i < 4; i++ {
			for _, at := range []time.Duration{time.Millisecond, 3 * time.Millisecond} {
				g.Domain(i).Schedule(at, func() {})
			}
		}
		g.Domain(dom).Schedule(2*time.Millisecond, runtime.Goexit)
		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			g.Run()
		}()
		var r any
		select {
		case r = <-got:
		case <-time.After(time.Minute):
			t.Fatalf("domain %d Goexit hung the round barrier", dom)
		}
		msg, _ := r.(string)
		if dom != 0 && !strings.Contains(msg, "Goexit") {
			t.Fatalf("domain %d Goexit: Run raised %v", dom, r)
		}
		if dom == 0 && r != nil {
			t.Fatalf("domain 0 Goexit: Run raised %v, want a plain goroutine exit", r)
		}
		waitGoroutines(t, fmt.Sprintf("domain %d Goexit", dom), before)
	}
}
