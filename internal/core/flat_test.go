package core

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestFlatGoldenHashes pins fig1's flat-actor clients to the recorded
// golden hashes at every scheduler width the former goroutine-vs-flat
// comparison swept: the flat path must reproduce the exact seed-solver
// traces, whether its rounds run serially or on a pool.
func TestFlatGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("trace goldens are slow")
	}
	for _, workers := range []int{1, 2, 4} {
		runs := goldenRuns(workers, 1)
		for _, name := range []string{"fig1/seed42", "fig1/seed7"} {
			got, _ := goldenHash(runs[name])
			if want := goldenTraces[name]; got != want {
				t.Errorf("workers=%d: flat %s = %#016x, want %#016x (flat path not bit-identical to seed trace)",
					workers, name, got, want)
			}
		}
	}
}

// TestFlatNoGoroutineLeak checks that fig1 runs its flat-actor clients
// without spawning a goroutine per client: the process's goroutine count
// after a round settles back to (at most) where it started.
func TestFlatNoGoroutineLeak(t *testing.T) {
	cfg := Fig1Config{
		Proto:      Proto{Seed: 42, Clients: []int{64}, Runs: 1},
		BlobMB:     4,
		SkipUpload: true,
	}
	before := runtime.NumGoroutine()
	RunFig1(cfg)
	// Give any stray goroutines a moment to exit before counting.
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("fig1 leaked goroutines: %d before, %d after", before, after)
	}
}

// TestFig1AggDegenerate pins the scale-exposed NaN fix: a cell that moves
// no bytes over no elapsed time reports aggregate 0, not 0/0 = NaN, and a
// zero-client sweep produces finite (zero) point fields.
func TestFig1AggDegenerate(t *testing.T) {
	if agg := fig1Agg(0, 0, 0); agg != 0 {
		t.Fatalf("fig1Agg(0,0,0) = %v, want 0", agg)
	}
	if agg := fig1Agg(0, 5, 5); agg != 0 {
		t.Fatalf("fig1Agg with lastEnd==base = %v, want 0", agg)
	}
	if agg := fig1Agg(1_000_000, 3, 1); agg != 0.5 {
		t.Fatalf("fig1Agg(1MB over 2s) = %v, want 0.5", agg)
	}
	cfg := Fig1Config{
		Proto:      Proto{Seed: 42, Clients: []int{0}, Runs: 1},
		BlobMB:     4,
		SkipUpload: true,
	}
	res := RunFig1(cfg)
	if len(res.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(res.Points))
	}
	p := res.Points[0]
	for _, v := range []float64{p.DownMBps, p.DownAggMBps, p.UpMBps, p.UpAggMBps, p.DownMBpsStddev} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("zero-client point has non-finite field: %+v", p)
		}
	}
}
