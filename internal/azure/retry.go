package azure

import (
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/storerr"
)

// RetryPolicy governs how transient storage errors are retried — the "robust
// retry mechanisms" the paper's Section 5.2 found indispensable at scale.
type RetryPolicy struct {
	// MaxAttempts bounds total tries (≥ 1).
	MaxAttempts int
	// Backoff is the wait before the second attempt.
	Backoff time.Duration
	// Multiplier grows the backoff each further attempt (≥ 1).
	Multiplier float64
	// MaxBackoff caps the grown backoff (0 = uncapped).
	MaxBackoff time.Duration
	// Jitter spreads each wait uniformly over [(1-Jitter)·backoff, backoff].
	// Without it, a closed-loop client pool that hits ServerBusy at the same
	// instant retries in lockstep and re-collides on every attempt. Must be
	// in [0, 1]; 0 (the zero value) disables jitter.
	Jitter float64
	// Rand supplies the jitter draws. Required when Jitter > 0: it must be a
	// per-client stream (simrand.RNG.Fork) so runs stay reproducible and
	// adding a client never perturbs another client's schedule.
	Rand *simrand.RNG
}

// WithJitter returns a copy of the policy that jitters each backoff by up to
// the given fraction, drawing from rng.
func (rp RetryPolicy) WithJitter(fraction float64, rng *simrand.RNG) RetryPolicy {
	if fraction < 0 || fraction > 1 {
		panic("azure: retry jitter fraction must be in [0, 1]")
	}
	if fraction > 0 && rng == nil {
		panic("azure: retry jitter requires a simrand stream")
	}
	rp.Jitter = fraction
	rp.Rand = rng
	return rp
}

// DefaultRetryPolicy mirrors the storage client library's classic
// exponential policy: 4 attempts, 3 s initial backoff, doubling.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Backoff: 3 * time.Second, Multiplier: 2}
}

// NoRetry performs exactly one attempt.
func NoRetry() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

// Do runs op, retrying retryable storage errors per the policy. It returns
// nil on eventual success, the last error otherwise. Non-retryable errors
// (conflicts, not-found) return immediately.
func (rp RetryPolicy) Do(p *sim.Proc, op func() error) error {
	attempts := rp.attempts()
	backoff := rp.Backoff
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 && backoff > 0 {
			p.Sleep(rp.wait(backoff))
			backoff = rp.grow(backoff)
		}
		err = op()
		if err == nil {
			return nil
		}
		if !storerr.IsRetryable(err) {
			return err
		}
	}
	return err
}

// attempts returns the bounded try count (at least one).
func (rp RetryPolicy) attempts() int {
	if rp.MaxAttempts < 1 {
		return 1
	}
	return rp.MaxAttempts
}

// wait returns the sleep before a retry whose nominal backoff is backoff,
// drawing the jitter when the policy has one.
func (rp RetryPolicy) wait(backoff time.Duration) time.Duration {
	if rp.Jitter <= 0 {
		return backoff
	}
	if rp.Rand == nil {
		panic("azure: RetryPolicy.Jitter set without a Rand stream")
	}
	return time.Duration(float64(backoff) * (1 - rp.Jitter*rp.Rand.Float64()))
}

// grow returns the backoff for the attempt after one that waited backoff.
func (rp RetryPolicy) grow(backoff time.Duration) time.Duration {
	backoff = time.Duration(float64(backoff) * rp.Multiplier)
	if rp.MaxBackoff > 0 && backoff > rp.MaxBackoff {
		backoff = rp.MaxBackoff
	}
	return backoff
}

// RetryFlat is the flat-actor form of RetryPolicy.Do: caller-owned state
// that runs one retried operation as continuations on an actor. It tries,
// sleeps and draws jitter exactly where Do does, from the same policy and
// stream, so a flat retry loop and a blocking one produce the same trace.
// One operation may be in flight per RetryFlat; a caller reuses it for every
// operation, so a steady-state retry allocates nothing.
type RetryFlat struct {
	rp RetryPolicy
	a  *sim.Actor

	op   func()          // issues one attempt, which reports through Result
	done func(err error) // receives the outcome; nil when none is in flight

	tries   int // attempts allowed
	made    int // attempts made so far
	backoff time.Duration
	attempt func() // cached: the backoff sleep's continuation
}

// Init prepares an embedded (zero-value) RetryFlat for policy rp.
func (f *RetryFlat) Init(rp RetryPolicy) {
	f.rp = rp
	f.attempt = f.try
}

// Begin runs op under the policy on actor a. op must issue one attempt and
// report its outcome through Result — inline or from a later continuation.
// done receives nil on eventual success, the last error otherwise, at the
// instant Do would have returned it.
func (f *RetryFlat) Begin(a *sim.Actor, op func(), done func(err error)) {
	if f.done != nil {
		panic("azure: RetryFlat already has an operation in flight")
	}
	f.a, f.op, f.done = a, op, done
	f.tries, f.made, f.backoff = f.rp.attempts(), 0, f.rp.Backoff
	f.try()
}

func (f *RetryFlat) try() {
	f.made++
	f.op()
}

// Result reports the outcome of the attempt op issued: it finishes the
// operation, or sleeps the backoff and issues the next attempt.
func (f *RetryFlat) Result(err error) {
	if err != nil && storerr.IsRetryable(err) && f.made < f.tries {
		if f.backoff <= 0 {
			f.try()
			return
		}
		wait := f.rp.wait(f.backoff)
		f.backoff = f.rp.grow(f.backoff)
		f.a.Sleep(wait, f.attempt)
		return
	}
	done := f.done
	f.Abort()
	done(err)
}

// Attempts returns how many attempts the current (or last finished)
// operation made.
func (f *RetryFlat) Attempts() int { return f.made }

// Abort drops the operation in flight, if any, without calling done — the
// unwind of an actor killed mid-operation (a killed Do just stops). The
// attempt count is kept.
func (f *RetryFlat) Abort() {
	f.a, f.op, f.done = nil, nil, nil
}
