package netsim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"azureobs/internal/sim"
)

func TestSingleFlowRate(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	nic := fab.NewLink("nic", 10*MBps)
	var elapsed time.Duration
	eng.Spawn("tx", func(p *sim.Proc) {
		elapsed = fab.Transfer(p, 100*MB, nic)
	})
	eng.Run()
	want := 10 * time.Second
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if fab.ActiveFlows() != 0 {
		t.Fatalf("flows left: %d", fab.ActiveFlows())
	}
}

// TestNewLinks: a batch of links is named prefix+i+suffix, carries the
// capacity, and each link is its own (one transfer loads only its link).
func TestNewLinks(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	links := fab.NewLinks(257, "host", "-nic", 10*MBps)
	if len(links) != 257 {
		t.Fatalf("got %d links, want 257", len(links))
	}
	for i, l := range links {
		if want := fmt.Sprintf("host%d-nic", i); l.Name() != want || l.Capacity() != 10*MBps {
			t.Fatalf("link %d = %q @ %v, want %q @ %v", i, l.Name(), l.Capacity(), want, 10*MBps)
		}
	}
	var elapsed time.Duration
	eng.Spawn("tx", func(p *sim.Proc) {
		elapsed = fab.Transfer(p, 100*MB, links[3])
	})
	eng.Spawn("probe", func(p *sim.Proc) {
		if links[3].Flows() != 1 || links[2].Flows() != 0 || links[4].Flows() != 0 {
			t.Errorf("flows on links 2/3/4 = %d/%d/%d, want 0/1/0", links[2].Flows(), links[3].Flows(), links[4].Flows())
		}
	})
	eng.Run()
	if elapsed != 10*time.Second {
		t.Fatalf("elapsed = %v, want 10s", elapsed)
	}
}

func TestBottleneckIsMinLink(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	a := fab.NewLink("a", 100*MBps)
	b := fab.NewLink("b", 5*MBps)
	var elapsed time.Duration
	eng.Spawn("tx", func(p *sim.Proc) {
		elapsed = fab.Transfer(p, 50*MB, a, b)
	})
	eng.Run()
	if elapsed != 10*time.Second {
		t.Fatalf("elapsed = %v, want 10s (5 MB/s bottleneck)", elapsed)
	}
}

func TestFairShareTwoFlows(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	shared := fab.NewLink("shared", 10*MBps)
	var t1, t2 time.Duration
	eng.Spawn("tx1", func(p *sim.Proc) { t1 = fab.Transfer(p, 50*MB, shared) })
	eng.Spawn("tx2", func(p *sim.Proc) { t2 = fab.Transfer(p, 50*MB, shared) })
	eng.Run()
	// Both share 5 MB/s, finish together at 10s.
	if t1 != 10*time.Second || t2 != 10*time.Second {
		t.Fatalf("elapsed = %v, %v; want both 10s", t1, t2)
	}
}

func TestRateRecomputesWhenFlowEnds(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	shared := fab.NewLink("shared", 10*MBps)
	var tBig time.Duration
	eng.Spawn("small", func(p *sim.Proc) { fab.Transfer(p, 10*MB, shared) })
	eng.Spawn("big", func(p *sim.Proc) { tBig = fab.Transfer(p, 60*MB, shared) })
	eng.Run()
	// Phase 1: both at 5 MB/s until small finishes at t=2s (10MB).
	// Big then has 50MB left at 10 MB/s → +5s → total 7s.
	if tBig != 7*time.Second {
		t.Fatalf("big elapsed = %v, want 7s", tBig)
	}
}

func TestRateRecomputesWhenFlowJoins(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	shared := fab.NewLink("shared", 10*MBps)
	var tFirst time.Duration
	eng.Spawn("first", func(p *sim.Proc) { tFirst = fab.Transfer(p, 40*MB, shared) })
	eng.Spawn("second", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		fab.Transfer(p, 100*MB, shared)
	})
	eng.Run()
	// First: 20MB in [0,2s) at 10 MB/s, then 20MB at 5 MB/s → 2+4 = 6s.
	if tFirst != 6*time.Second {
		t.Fatalf("first elapsed = %v, want 6s", tFirst)
	}
}

func TestMaxMinUnevenPaths(t *testing.T) {
	// Flow A crosses narrow (3) and wide (30); flow B crosses wide only.
	// Max-min: A gets 3 (narrow-bound), B gets 27.
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	narrow := fab.NewLink("narrow", 3*MBps)
	wide := fab.NewLink("wide", 30*MBps)
	fa := fab.StartFlow(1000*MB, narrow, wide)
	fb := fab.StartFlow(1000*MB, wide)
	if math.Abs(float64(fa.Rate()-3*MBps)) > 1 {
		t.Fatalf("flow A rate = %v, want 3 MB/s", fa.Rate())
	}
	if math.Abs(float64(fb.Rate()-27*MBps)) > 1 {
		t.Fatalf("flow B rate = %v, want 27 MB/s", fb.Rate())
	}
	_ = eng
}

func TestManyFlowsEqualShare(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	trunk := fab.NewLink("trunk", 120*MBps)
	done := 0
	for i := 0; i < 12; i++ {
		eng.Spawn("tx", func(p *sim.Proc) {
			fab.Transfer(p, 100*MB, trunk)
			done++
			if got := p.Now(); got != 10*time.Second {
				t.Errorf("flow finished at %v, want 10s", got)
			}
		})
	}
	eng.Run()
	if done != 12 {
		t.Fatalf("done = %d, want 12", done)
	}
}

func TestCapacityFn(t *testing.T) {
	// Effective capacity halves when 2 flows are active: each flow then
	// gets 2.5 MB/s instead of 5.
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	l := fab.NewLink("svc", 10*MBps)
	l.SetCapacityFn(func(n int) Bandwidth {
		if n >= 2 {
			return 5 * MBps
		}
		return 10 * MBps
	})
	var t1 time.Duration
	eng.Spawn("a", func(p *sim.Proc) { t1 = fab.Transfer(p, 25*MB, l) })
	eng.Spawn("b", func(p *sim.Proc) { fab.Transfer(p, 25*MB, l) })
	eng.Run()
	if t1 != 10*time.Second {
		t.Fatalf("elapsed = %v, want 10s (2.5 MB/s each)", t1)
	}
}

func TestKilledSenderReleasesBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	shared := fab.NewLink("shared", 10*MBps)
	var victim *sim.Proc
	victim = eng.Spawn("victim", func(p *sim.Proc) {
		fab.Transfer(p, 1000*MB, shared)
		t.Error("victim transfer completed despite kill")
	})
	var tOther time.Duration
	eng.Spawn("other", func(p *sim.Proc) { tOther = fab.Transfer(p, 50*MB, shared) })
	eng.After(2*time.Second, func() { victim.Kill() })
	eng.Run()
	// Other: 10MB in [0,2s) at 5 MB/s, then 40MB at 10 MB/s → 2+4 = 6s.
	if tOther != 6*time.Second {
		t.Fatalf("other elapsed = %v, want 6s", tOther)
	}
	if fab.ActiveFlows() != 0 {
		t.Fatalf("flows left: %d", fab.ActiveFlows())
	}
}

func TestZeroSizeTransfer(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	l := fab.NewLink("l", MBps)
	var elapsed time.Duration = -1
	eng.Spawn("tx", func(p *sim.Proc) { elapsed = fab.Transfer(p, 0, l) })
	eng.Run()
	if elapsed != 0 {
		t.Fatalf("zero transfer took %v", elapsed)
	}
}

func TestSimultaneousCompletions(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	l := fab.NewLink("l", 10*MBps)
	finished := 0
	for i := 0; i < 4; i++ {
		eng.Spawn("tx", func(p *sim.Proc) {
			fab.Transfer(p, 25*MB, l)
			finished++
		})
	}
	eng.Run()
	if finished != 4 {
		t.Fatalf("finished = %d, want 4", finished)
	}
	if !eng.Drained() {
		t.Fatal("engine not drained")
	}
}

func TestAggregateConservation(t *testing.T) {
	// Total bytes delivered per unit time never exceeds link capacity:
	// 8 staggered flows over a 16 MB/s link moving 16 MB each must take at
	// least 8 s in aggregate terms.
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	l := fab.NewLink("l", 16*MBps)
	var last time.Duration
	for i := 0; i < 8; i++ {
		i := i
		eng.Spawn("tx", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * 250 * time.Millisecond)
			fab.Transfer(p, 16*MB, l)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	eng.Run()
	if last < 8*time.Second-time.Millisecond {
		t.Fatalf("all flows done at %v; faster than capacity allows (8s minimum)", last)
	}
}

func TestCapacityProfileInterpolation(t *testing.T) {
	fn := CapacityProfile(
		ProfilePoint{N: 1, Capacity: 50 * MBps},
		ProfilePoint{N: 8, Capacity: 110 * MBps},
		ProfilePoint{N: 128, Capacity: 393 * MBps},
	)
	if got := fn(1); got != 50*MBps {
		t.Fatalf("fn(1) = %v", got)
	}
	if got := fn(0); got != 50*MBps {
		t.Fatalf("fn(0) clamps to first knot, got %v", got)
	}
	if got := fn(8); got != 110*MBps {
		t.Fatalf("fn(8) = %v", got)
	}
	if got := fn(500); got != 393*MBps {
		t.Fatalf("fn(500) clamps to last knot, got %v", got)
	}
	// Midpoint in log space between 8 and 128 is 32.
	if got := fn(32); math.Abs(float64(got-(110+393)/2*MBps)) > float64(MBps)/2 {
		t.Fatalf("fn(32) = %v, want ~251.5 MB/s", got)
	}
	// Monotone between knots.
	prev := fn(1)
	for n := 2; n <= 200; n++ {
		cur := fn(n)
		if cur < prev {
			t.Fatalf("profile not monotone at n=%d", n)
		}
		prev = cur
	}
}

func TestCapacityProfileValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty", func() { CapacityProfile() })
	mustPanic("bad N", func() { CapacityProfile(ProfilePoint{N: 0, Capacity: MBps}) })
	mustPanic("non-increasing", func() {
		CapacityProfile(ProfilePoint{N: 4, Capacity: MBps}, ProfilePoint{N: 4, Capacity: MBps})
	})
}

func TestEmptyPathPanics(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("empty path did not panic")
		}
	}()
	fab.StartFlow(1 * MB)
}

func TestDeterministicTransfers(t *testing.T) {
	run := func() []time.Duration {
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		trunk := fab.NewLink("trunk", 100*MBps)
		var out []time.Duration
		for i := 0; i < 20; i++ {
			i := i
			nic := fab.NewLink("nic", 13*MBps)
			eng.Spawn("tx", func(p *sim.Proc) {
				p.Sleep(time.Duration(i*37) * time.Millisecond)
				fab.Transfer(p, int64(i+1)*10*MB, nic, trunk)
				out = append(out, p.Now())
			})
		}
		eng.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic completion at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
