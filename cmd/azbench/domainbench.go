package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/core"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// The domainbench artifact measures the domain-sharded kernel: the same cell
// executed at a ladder of sim.Domains widths, with the trace hash asserted
// identical at every rung — the determinism contract is checked by the same
// run that measures the speedup. Three suites cover the three sharding
// shapes:
//
//   - fig1-cell: the golden fig1 blob-bandwidth cell, whose (level, run,
//     direction) rounds shard across domains inside core.RunFig1;
//   - fig2-sweep: the table-operation ladder, whose levels run under
//     driver-process phase sequencing on domain members;
//   - scale-cell: one scalebench rung split into 8 fixed client shards,
//     shard s on domain s%D, so the same worlds run at every width — plus
//     one windowed point exercising the bounded virtual-time coordinator.
//
// On a single-CPU host GOMAXPROCS serializes the member goroutines, so
// speedup stays ~1 and the rows certify determinism; on an n-core machine
// the ladder approaches min(n, domains, unit parallelism).

// domainPoint is one (suite, domains) measurement.
type domainPoint struct {
	Suite       string  `json:"suite"`
	Domains     int     `json:"domains"`
	WindowSec   float64 `json:"window_sec,omitempty"`
	WallMS      float64 `json:"wall_ms"`
	BusyMS      float64 `json:"busy_ms,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	Rounds      int     `json:"rounds,omitempty"`
	Groups      int     `json:"groups,omitempty"`
	Speedup     float64 `json:"speedup_vs_one,omitempty"`
	Efficiency  float64 `json:"efficiency,omitempty"`
	TraceHash   string  `json:"trace_hash"`
	Events      uint64  `json:"events_fired,omitempty"`
	// ClampedGroups counts groups that ran narrower than the requested
	// width (a layer clamped the ask — geo to its region count, modis to
	// its shard count). Surfaced per the no-silent-caps convention.
	ClampedGroups int `json:"clamped_groups,omitempty"`
}

type domainBenchReport struct {
	Suite      string        `json:"suite"`
	CapturedAt string        `json:"captured_at"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	Seed       uint64        `json:"seed"`
	Quick      bool          `json:"quick"`
	Note       string        `json:"note"`
	Points     []domainPoint `json:"points"`
}

// domainTraceHash folds the printed form of the given values into one
// FNV-64a sum. %+v of a result renders every float64 in shortest-round-trip
// form, so two hashes agree exactly when the traces' observable outcomes do.
func domainTraceHash(vs ...any) string {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v|", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// domainFig1Config is the fig1-cell suite config: the golden seed-42 cell
// (full) or a shrunk ladder (quick).
func domainFig1Config(seed uint64, quick bool) core.Fig1Config {
	clients, blob := []int{1, 8, 32, 64, 128, 192}, int64(32)
	if quick {
		clients, blob = []int{1, 8, 32}, 8
	}
	return core.Fig1Config{
		Proto:  core.Proto{Seed: seed, Clients: clients, Runs: 1, Workers: 1},
		BlobMB: blob,
	}
}

// runDomainFig1 executes the fig1-cell suite at one domain count and returns its trace hash and coordinator accounting.
func runDomainFig1(seed uint64, quick bool, domains int) (string, *sim.DomainAccum, time.Duration) {
	cfg := domainFig1Config(seed, quick)
	var acc sim.DomainAccum
	cfg.Domains = domains
	cfg.DomainStats = &acc
	start := time.Now()
	res := core.RunFig1(cfg)
	wall := time.Since(start)
	return domainTraceHash(res, res.Anchors()), &acc, wall
}

// runDomainFig2 executes the fig2-sweep suite at one domain count.
func runDomainFig2(seed uint64, quick bool, domains int) (string, *sim.DomainAccum, time.Duration) {
	clients := []int{1, 8, 64, 192}
	if quick {
		clients = []int{1, 8}
	}
	cfg := core.Fig2Config{
		Proto:      core.Proto{Seed: seed, Clients: clients, Workers: 1},
		EntitySize: 4096, Inserts: 40, Queries: 40, Updates: 20,
	}
	var acc sim.DomainAccum
	cfg.Domains = domains
	cfg.DomainStats = &acc
	start := time.Now()
	res := core.RunFig2(cfg)
	wall := time.Since(start)
	return domainTraceHash(res, res.Anchors()), &acc, wall
}

// domainScaleShards is the fixed shard count of the scale-cell suite. It
// does not vary with the domain ladder — the same 8 shard worlds run at
// every width (shard s on domain s%D), which is what makes the rungs'
// traces comparable in the first place.
const domainScaleShards = 8

// runDomainScaleCell runs one scalebench-style rung of n clients split into
// domainScaleShards self-contained shard clouds placed round-robin on a
// domains-wide group. Each shard's cloud seed and client stream root derive
// from the shard index alone (root.ForkDomain(s)), so no draw anywhere
// depends on the domain count — the summed tallies, total events, and final
// virtual time must match at every width, and that tuple is the trace hash.
func runDomainScaleCell(seed uint64, n, domains int, window time.Duration) (string, *sim.DomainAccum, time.Duration, uint64) {
	shards := domainScaleShards
	per := n / shards
	g := sim.NewDomains(domains)
	if window > 0 {
		g.SetWindow(window)
	}
	base := simrand.New(seed).Fork("scalebench")
	clouds := make([]*azure.Cloud, shards)
	hs := make([]*scaleHarness, shards)
	clients := make([][]scaleClient, shards)
	for s := 0; s < shards; s++ {
		cloud, h := newScaleCloudOn(g.Domain(s%domains), seed+uint64(s)*7919)
		h.root = base.ForkDomain(s)
		clouds[s], hs[s] = cloud, h
		cs := make([]scaleClient, per)
		for i := range cs {
			cs[i].init(h, i)
		}
		clients[s] = cs
	}
	for s := range clients {
		for i := range clients[s] {
			clients[s][i].begin()
		}
	}
	start := time.Now()
	g.Run()
	wall := time.Since(start)

	var ok, failed, server uint64
	for s := 0; s < shards; s++ {
		ok += hs[s].ok
		failed += hs[s].failed
		server += clouds[s].Ops.Total()
	}
	events := g.EventsFired()
	hash := domainTraceHash(ok, failed, server, events, g.Now().Seconds())
	var acc sim.DomainAccum
	acc.Add(g.Stats())
	return hash, &acc, wall, events
}

// domainLadder is the domain-count ladder: {1,2,4,8} full, {1,2} quick.
func domainLadder(quick bool) []int {
	if quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8}
}

func runDomainBench(seed uint64, quick bool, out string) int {
	rep := domainBenchReport{
		Suite:      "domains",
		CapturedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Quick:      quick,
		Note: "domain-sharded kernel ladder: each suite's cell re-run at domains ∈ " +
			"{1,2,4,8} ({1,2} quick), with identical trace_hash required at every rung. " +
			"fig1-cell shards (level,run,direction) rounds, fig2-sweep runs " +
			"levels under driver-process phase sequencing, scale-cell splits one " +
			"closed-loop rung into 8 fixed shard clouds placed round-robin on the group " +
			"(the window_sec row runs the same cell under the bounded virtual-time " +
			"coordinator). speedup_vs_one is against the suite's domains=1 wall; " +
			"utilization is busy/(domains×wall) from the coordinator's accounting. " +
			"Wall-clock speedup requires num_cpu > 1; on one CPU the ladder only " +
			"certifies determinism.",
	}

	scaleN := 100_000
	if quick {
		scaleN = 10_000
	}
	ladder := domainLadder(quick)
	maxD := ladder[len(ladder)-1]

	fail := false
	addSuite := func(name string, run func(d int, window time.Duration) domainPoint) {
		var pts []domainPoint
		baseWall := 0.0
		for _, d := range ladder {
			pt := run(d, 0)
			if d == 1 {
				baseWall = pt.WallMS
			}
			if baseWall > 0 {
				pt.Speedup = baseWall / pt.WallMS
				pt.Efficiency = pt.Speedup / float64(d)
			}
			pts = append(pts, pt)
			fmt.Printf("domainbench: %-10s domains=%d %8.1f ms wall  %.2fx vs d=1  util %.2f  rounds %d  trace %s\n",
				name, d, pt.WallMS, pt.Speedup, pt.Utilization, pt.Rounds, pt.TraceHash)
		}
		if name == "scale-cell" {
			pt := run(maxD, time.Second)
			pts = append(pts, pt)
			fmt.Printf("domainbench: %-10s domains=%d window=%.0fs %5.1f ms wall  rounds %d  trace %s\n",
				name, maxD, pt.WindowSec, pt.WallMS, pt.Rounds, pt.TraceHash)
		}
		for _, pt := range pts[1:] {
			if pt.TraceHash != pts[0].TraceHash {
				fmt.Fprintf(os.Stderr, "domainbench: FAIL %s: trace diverged at domains=%d: %s vs %s\n",
					name, pt.Domains, pt.TraceHash, pts[0].TraceHash)
				fail = true
			}
		}
		rep.Points = append(rep.Points, pts...)
	}

	accPoint := func(suite string, d int, hash string, acc *sim.DomainAccum, wall time.Duration) domainPoint {
		return domainPoint{
			Suite:       suite,
			Domains:     d,
			WallMS:      float64(wall) / 1e6,
			BusyMS:      float64(acc.Busy) / 1e6,
			Utilization: acc.Utilization(),
			Rounds:      acc.Rounds,
			Groups:      acc.Groups,
			TraceHash:   hash,
		}
	}

	addSuite("fig1-cell", func(d int, _ time.Duration) domainPoint {
		hash, acc, wall := runDomainFig1(seed, quick, d)
		return accPoint("fig1-cell", d, hash, acc, wall)
	})
	addSuite("fig2-sweep", func(d int, _ time.Duration) domainPoint {
		hash, acc, wall := runDomainFig2(seed, quick, d)
		return accPoint("fig2-sweep", d, hash, acc, wall)
	})
	addSuite("scale-cell", func(d int, window time.Duration) domainPoint {
		hash, acc, wall, events := runDomainScaleCell(seed, scaleN, d, window)
		pt := accPoint("scale-cell", d, hash, acc, wall)
		pt.WindowSec = window.Seconds()
		pt.Events = events
		return pt
	})

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("domainbench: wrote %s\n", out)
	if fail {
		fmt.Fprintln(os.Stderr, "domainbench: cross-domain trace divergence — the determinism contract is broken; do not merge")
		return 1
	}
	return 0
}

// runDomainGate is the regression step, in the simbench -gate convention:
// re-run the fig1-cell suite at domains=1 (minimum over five repetitions, to
// shave scheduler noise) at the scale the checked-in BENCH_domains.json was
// captured at, and fail if the wall is more than 10% over the recorded one —
// the coordinator's single-domain overhead must stay negligible.
func runDomainGate(baselinePath string) int {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "domainbench gate: %v\n", err)
		return 1
	}
	var base domainBenchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Fprintf(os.Stderr, "domainbench gate: parse %s: %v\n", baselinePath, err)
		return 1
	}
	want, wantHash := 0.0, ""
	for _, pt := range base.Points {
		if pt.Suite == "fig1-cell" && pt.Domains == 1 && pt.WindowSec == 0 {
			want, wantHash = pt.WallMS, pt.TraceHash
		}
	}
	if want <= 0 {
		fmt.Fprintf(os.Stderr, "domainbench gate: no fig1-cell domains=1 baseline in %s\n", baselinePath)
		return 1
	}

	const tolerance = 1.10
	best, bestHash := 0.0, ""
	for rep := 0; rep < 5; rep++ {
		hash, _, wall := runDomainFig1(base.Seed, base.Quick, 1)
		if ms := float64(wall) / 1e6; best == 0 || ms < best {
			best = ms
		}
		bestHash = hash
	}
	ratio := best / want
	status := "ok"
	if ratio > tolerance {
		status = "FAIL"
	}
	fmt.Printf("domainbench gate: fig1-cell domains=1 %8.1f ms vs baseline %8.1f (%.2fx) %s  trace %s\n",
		best, want, ratio, status, bestHash)
	if wantHash != "" && bestHash != wantHash {
		fmt.Fprintf(os.Stderr, "domainbench gate: trace hash %s differs from recorded %s — the cell's simulation changed; recapture BENCH_domains.json with -run domainbench\n",
			bestHash, wantHash)
		return 1
	}
	if ratio > tolerance {
		fmt.Fprintln(os.Stderr, "domainbench gate: single-domain wall regression >10% — investigate before merging (profile with -run domainbench -cpuprofile cpu.out)")
		return 1
	}
	fmt.Println("domainbench gate: single-domain fig1 cell within 10% of baseline")
	return 0
}
