package azure

import (
	"reflect"
	"testing"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/storerr"
)

// retrySchedule runs one always-busy client through the policy and records
// the virtual time of every attempt after the first.
func retrySchedule(eng *sim.Engine, name string, rp RetryPolicy) *[]time.Duration {
	var attempts []time.Duration
	eng.Spawn(name, func(p *sim.Proc) {
		first := true
		_ = rp.Do(p, func() error {
			if !first {
				attempts = append(attempts, p.Now())
			}
			first = false
			return storerr.New(storerr.CodeServerBusy, "op", "")
		})
	})
	return &attempts
}

// Without jitter, clients that collide at t=0 retry in lockstep forever —
// the herd the paper's Section 5.2 retry guidance warns about. With a
// per-client jitter stream their schedules must desynchronize, while staying
// bit-reproducible under the same seed and unaffected by unrelated clients
// joining the run.
func TestRetryJitterDesynchronizesClients(t *testing.T) {
	base := RetryPolicy{MaxAttempts: 4, Backoff: 3 * time.Second, Multiplier: 2}

	// Lockstep control: identical schedules without jitter.
	{
		eng := sim.NewEngine()
		a := retrySchedule(eng, "a", base)
		b := retrySchedule(eng, "b", base)
		eng.Run()
		if len(*a) != 3 || len(*b) != 3 {
			t.Fatalf("attempt counts %d/%d, want 3/3", len(*a), len(*b))
		}
		for i := range *a {
			if (*a)[i] != (*b)[i] {
				t.Fatalf("unjittered clients desynchronized at attempt %d: %v vs %v", i, (*a)[i], (*b)[i])
			}
		}
	}

	run := func(seed uint64, clients int) [][]time.Duration {
		eng := sim.NewEngine()
		root := simrand.New(seed)
		scheds := make([]*[]time.Duration, clients)
		for i := 0; i < clients; i++ {
			rng := root.ForkN("retry", i)
			scheds[i] = retrySchedule(eng, "c", base.WithJitter(0.5, rng))
		}
		eng.Run()
		out := make([][]time.Duration, clients)
		for i, s := range scheds {
			out[i] = *s
		}
		return out
	}

	got := run(42, 3)
	for i, s := range got {
		if len(s) != 3 {
			t.Fatalf("client %d made %d retries, want 3", i, len(s))
		}
		for k, at := range s {
			// Each wait is uniform over [0.5, 1]×backoff; the k-th retry
			// therefore lands in [half, full] of the unjittered schedule.
			full := time.Duration(3*((1<<(k+1))-1)) * time.Second
			if at < full/2 || at > full {
				t.Fatalf("client %d retry %d at %v, outside [%v, %v]", i, k, at, full/2, full)
			}
		}
	}
	// Desynchronized: no two clients share a first-retry instant.
	for i := 0; i < len(got); i++ {
		for j := i + 1; j < len(got); j++ {
			if got[i][0] == got[j][0] {
				t.Fatalf("clients %d and %d retry in lockstep at %v despite jitter", i, j, got[i][0])
			}
		}
	}

	// Deterministic: same seed reproduces every schedule exactly.
	again := run(42, 3)
	for i := range got {
		for k := range got[i] {
			if got[i][k] != again[i][k] {
				t.Fatalf("seed 42 not reproducible: client %d retry %d %v vs %v", i, k, got[i][k], again[i][k])
			}
		}
	}

	// Stream isolation: adding a fourth client leaves the first three alone.
	wider := run(42, 4)
	for i := 0; i < 3; i++ {
		for k := range got[i] {
			if got[i][k] != wider[i][k] {
				t.Fatalf("adding a client perturbed client %d retry %d: %v vs %v", i, k, got[i][k], wider[i][k])
			}
		}
	}
}

func TestRetryJitterValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("fraction out of range", func() {
		DefaultRetryPolicy().WithJitter(1.5, simrand.New(1))
	})
	mustPanic("nil rng", func() {
		DefaultRetryPolicy().WithJitter(0.5, nil)
	})
}

// TestRetryFlatMatchesDo is the retry twin pin: over scripted error
// sequences, RetryFlat on an actor makes the same attempts at the same
// instants, returns the same error, and draws the same jitter as Do on a
// process. Attempts alternate between reporting inline and after a sleep,
// the two shapes a flat storage op takes (an admission fault completes
// inline; a station visit completes from a later event).
func TestRetryFlatMatchesDo(t *testing.T) {
	busy := storerr.New(storerr.CodeServerBusy, "op", "")
	conflict := storerr.New(storerr.CodeConflict, "op", "")
	scripts := map[string][]error{
		"first-try":       {nil},
		"success-on-3":    {busy, busy, nil},
		"non-retryable":   {busy, conflict, busy},
		"exhausted":       {busy, busy, busy, busy, busy},
		"retry-then-last": {busy, busy, busy, nil},
	}
	policies := map[string]func(*simrand.RNG) RetryPolicy{
		"default-jitter": func(r *simrand.RNG) RetryPolicy { return DefaultRetryPolicy().WithJitter(0.5, r) },
		"capped": func(*simrand.RNG) RetryPolicy {
			return RetryPolicy{MaxAttempts: 5, Backoff: time.Second, Multiplier: 3, MaxBackoff: 4 * time.Second}
		},
		"no-backoff": func(*simrand.RNG) RetryPolicy { return RetryPolicy{MaxAttempts: 3} },
		"no-retry":   func(*simrand.RNG) RetryPolicy { return NoRetry() },
	}
	type outcome struct {
		at       []time.Duration // attempt instants
		err      error
		doneAt   time.Duration
		fired    uint64
		nextDraw float64 // the jitter stream's next value afterwards
	}
	run := func(script []error, mk func(*simrand.RNG) RetryPolicy, flat bool) outcome {
		eng := sim.NewEngine()
		rng := simrand.New(9).Fork("retry")
		rp := mk(rng)
		var o outcome
		attemptErr := func() error {
			o.at = append(o.at, eng.Now())
			return script[len(o.at)-1]
		}
		if flat {
			var a sim.Actor
			a.Bind(eng, "flat")
			var f RetryFlat
			f.Init(rp)
			op := func() {
				err := attemptErr()
				if len(o.at)%2 == 0 {
					f.Result(err)
					return
				}
				a.Sleep(time.Millisecond, func() { f.Result(err) })
			}
			a.Go(func() {
				f.Begin(&a, op, func(err error) {
					o.err, o.doneAt = err, eng.Now()
					if f.Attempts() != len(o.at) {
						t.Errorf("Attempts() = %d, made %d", f.Attempts(), len(o.at))
					}
					a.Finish()
				})
			})
		} else {
			eng.Spawn("blocking", func(p *sim.Proc) {
				o.err = rp.Do(p, func() error {
					err := attemptErr()
					if len(o.at)%2 != 0 {
						p.Sleep(time.Millisecond)
					}
					return err
				})
				o.doneAt = p.Now()
			})
		}
		eng.Run()
		o.fired = eng.EventsFired()
		o.nextDraw = rng.Float64()
		return o
	}
	for sname, script := range scripts {
		for pname, mk := range policies {
			blocking, flat := run(script, mk, false), run(script, mk, true)
			if !reflect.DeepEqual(blocking, flat) {
				t.Errorf("%s under %s: Do %+v != RetryFlat %+v", sname, pname, blocking, flat)
			}
		}
	}
}
