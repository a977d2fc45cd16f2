package sim

import (
	"testing"
	"time"
)

// Kernel hot-path microbenchmarks. The same four workloads are surfaced at
// fixed scale by `azbench -run simbench` (cmd/azbench/simbench.go), which
// compares against embedded pre-overhaul baselines; these go-bench variants
// are for interactive profiling work:
//
//	go test -run xx -bench BenchmarkCancelChurn -cpuprofile cpu.out ./internal/sim
//
// churnTick spreads replacement events pseudo-randomly (Fibonacci hashing)
// over a window ahead of the clock so the heap sees realistic disorder.
const benchTick = time.Microsecond

func benchAt(e *Engine, i, pop int) time.Duration {
	return e.Now() + benchTick + time.Duration(uint32(i)*2654435761%uint32(pop))*benchTick
}

// BenchmarkCancelChurn is the netsim remove pattern: per fired completion,
// one flow retires its pending completion (CancelRecycle + Schedule of the
// successor) and the reallocated bandwidth moves seven others — the same
// composite the azbench cancel-churn suite runs.
func BenchmarkCancelChurn(b *testing.B) {
	const pop = 1024
	e := NewEngine()
	evs := make([]*Event, pop)
	var refill []int
	fns := make([]func(), pop)
	for s := range fns {
		s := s
		fns[s] = func() {
			e.Recycle(evs[s])
			evs[s] = nil
			refill = append(refill, s)
		}
	}
	for s := range evs {
		evs[s] = e.Schedule(benchAt(e, s, pop), fns[s])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			s := (i*8 + k) % pop
			at := benchAt(e, i+k, pop)
			switch {
			case evs[s] == nil:
				evs[s] = e.Schedule(at, fns[s])
			case k == 0:
				e.CancelRecycle(evs[s])
				evs[s] = e.Schedule(at, fns[s])
			default:
				e.Reschedule(evs[s], at)
			}
		}
		e.Step()
		for _, s := range refill {
			evs[s] = e.Schedule(benchAt(e, i+s, pop), fns[s])
		}
		refill = refill[:0]
	}
}

// BenchmarkRescheduleChurn is the hot move path: a still-pending completion
// sifts in place to a new time.
func BenchmarkRescheduleChurn(b *testing.B) {
	const pop = 1024
	e := NewEngine()
	evs := make([]*Event, pop)
	var refill []int
	fns := make([]func(), pop)
	for s := range fns {
		s := s
		fns[s] = func() {
			e.Recycle(evs[s])
			refill = append(refill, s)
		}
	}
	for s := range evs {
		evs[s] = e.Schedule(benchAt(e, s, pop), fns[s])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			s := (i*8 + k) % pop
			if evs[s] != nil {
				e.Reschedule(evs[s], benchAt(e, i+k, pop))
			} else {
				evs[s] = e.Schedule(benchAt(e, i+k, pop), fns[s])
			}
		}
		e.Step()
		for _, s := range refill {
			evs[s] = e.Schedule(benchAt(e, i+s, pop), fns[s])
		}
		refill = refill[:0]
	}
}

func benchChild(p *Proc) {}

// BenchmarkSpawnChurn is the closed-loop client pattern: one short-lived
// process per request. With worker reuse the steady state should allocate
// only the Proc itself.
func BenchmarkSpawnChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i += 64 {
			n := 64
			if rem := b.N - i; rem < n {
				n = rem
			}
			for j := 0; j < n; j++ {
				e.Spawn("child", benchChild)
			}
			p.Yield()
		}
	})
	e.Run()
}

// BenchmarkSleepLadder exercises the wake-event fast path: a fixed cohort of
// processes sleeping staggered durations.
func BenchmarkSleepLadder(b *testing.B) {
	const procs = 64
	e := NewEngine()
	total := b.N
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < procs; i++ {
		share := total / procs
		if i < total%procs {
			share++
		}
		e.Spawn("sleeper", func(p *Proc) {
			for k := 0; k < share; k++ {
				p.Sleep(time.Duration((i+k)%7+1) * time.Millisecond)
				done++
			}
		})
	}
	e.Run()
	if done != total {
		b.Fatalf("done = %d, want %d", done, total)
	}
}

// BenchmarkMixed pushes producers and timeout-guarded consumers through a
// queue and a resource — the full primitive stack under one benchmark.
func BenchmarkMixed(b *testing.B) {
	e := NewEngine()
	q := NewQueue[int]()
	r := NewResource(e, "disk", 4)
	b.ReportAllocs()
	b.ResetTimer()
	const pairs = 8
	for i := 0; i < pairs; i++ {
		share := b.N / pairs
		if i < b.N%pairs {
			share++
		}
		e.Spawn("producer", func(p *Proc) {
			for k := 0; k < share; k++ {
				r.Use(p, 1, func() { p.Sleep(200 * time.Microsecond) })
				q.Put(k)
			}
		})
		e.Spawn("consumer", func(p *Proc) {
			for k := 0; k < share; k++ {
				q.GetTimeout(p, time.Millisecond)
			}
		})
	}
	e.Run()
}

// BenchmarkDomainMail is the cross-domain mail path: four domains, each
// mailing eight messages per window to the others — Send gather, flushMail
// pooled batch assembly, deliverBatch slice recycling. The azbench
// mail-churn suite runs the same shape at fixed scale; this variant is for
// interactive profiling:
//
//	go test -run xx -bench BenchmarkDomainMail -cpuprofile cpu.out ./internal/sim
func BenchmarkDomainMail(b *testing.B) {
	const width, perRound = 4, 8
	g := NewDomains(width)
	g.SetWindow(100 * time.Microsecond)
	received := make([]int, width)
	rounds := b.N / (width * perRound)
	if rounds < 1 {
		rounds = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for d := 0; d < width; d++ {
		d := d
		eng := g.Domain(d)
		eng.Spawn("mailer", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				for j := 0; j < perRound; j++ {
					dst := (d + j + 1) % width
					eng.Send(dst, func() { received[dst]++ })
				}
				p.Sleep(100 * time.Microsecond)
			}
		})
	}
	g.Run()
	b.StopTimer()
	total := 0
	for _, n := range received {
		total += n
	}
	if want := width * perRound * rounds; total != want {
		b.Fatalf("delivered %d of %d", total, want)
	}
}

// BenchmarkDomainRound prices one coordinator round at width 2: each domain
// fires one event per 1µs window, so ns/op and allocs/op are the per-round
// barrier cost plus two kernel steps.
func BenchmarkDomainRound(b *testing.B) {
	g := NewDomains(2)
	g.SetWindow(time.Microsecond)
	for d := 0; d < 2; d++ {
		eng := g.Domain(d)
		n := 0
		var tick func()
		tick = func() {
			if n++; n < b.N {
				eng.Schedule(eng.Now()+time.Microsecond, tick)
			}
		}
		eng.Schedule(0, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	g.Run()
}
