package core

import (
	"fmt"

	"azureobs/internal/azure"
	"azureobs/internal/core/sched"
	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

// Fig2Config scales the table storage experiment. The paper's protocol
// (Section 3.2): each client inserts 500 entities into one partition
// (~220k total at 192 clients), queries the same entity 500 times by keys,
// updates one shared entity 100 times unconditionally, then deletes its own
// 500 entities. Entity sizes 1-64 kB.
type Fig2Config struct {
	Proto
	EntitySize int // bytes (paper figure: 4096)
	Inserts    int // per client (paper: 500)
	Queries    int // per client (paper: 500)
	Updates    int // per client (paper: 100)
}

// DefaultFig2Config is the paper-scale protocol at 4 kB entities.
func DefaultFig2Config() Fig2Config {
	p := Defaults()
	p.Clients = DefaultClientCounts()
	return Fig2Config{
		Proto:      p,
		EntitySize: 4096,
		Inserts:    500,
		Queries:    500,
		Updates:    100,
	}
}

func (cfg Fig2Config) withDefaults() Fig2Config {
	if cfg.Clients == nil {
		cfg.Clients = DefaultClientCounts()
	}
	if cfg.EntitySize == 0 {
		cfg.EntitySize = 4096
	}
	if cfg.Inserts == 0 {
		cfg.Inserts = 500
	}
	if cfg.Queries == 0 {
		cfg.Queries = 500
	}
	if cfg.Updates == 0 {
		cfg.Updates = 100
	}
	return cfg
}

// Fig2Point holds per-client ops/s for the four operations at one
// concurrency level, plus the count of clients that finished all inserts
// (all of them except in the 64 kB overload regime).
type Fig2Point struct {
	Clients   int
	InsertOps float64
	QueryOps  float64
	UpdateOps float64
	DeleteOps float64

	InsertSurvivors int
	DeleteSurvivors int
}

// Fig2Result is the reproduced Fig. 2 dataset.
type Fig2Result struct {
	EntitySize int
	Points     []Fig2Point
}

// RunFig2 executes the table operation sweep. Each concurrency level is an
// independent cell (its own cloud, seed salted by the level alone), so the
// ladder shards over cfg.Workers with bit-identical results at any width.
func RunFig2(cfg Fig2Config) *Fig2Result {
	cfg = cfg.withDefaults()
	res := &Fig2Result{EntitySize: cfg.EntitySize}
	pool := sched.New(cfg.Workers)
	if cfg.Domains > 0 {
		// Intra-cell parallelism: each level is a self-contained simulation
		// unit, sharded across sim.Domains groups (and group batches over
		// the pool). The level's phases run under a driver process instead
		// of repeated engine drains; the trace is identical either way.
		res.Points = domainBatches(pool, cfg.Domains, len(cfg.Clients), cfg.DomainStats,
			func(u int, eng *sim.Engine) func() Fig2Point {
				return fig2LevelStart(cfg, cfg.Clients[u], eng)
			})
	} else {
		res.Points = sched.Map(pool, len(cfg.Clients), func(i int) Fig2Point {
			return runFig2Level(cfg, cfg.Clients[i])
		})
	}
	return res
}

// phaseRate runs one closed-loop phase over all clients and returns the mean
// per-client ops rate and the number of clients that completed every op.
// A client that hits a server timeout aborts its run (the paper counts these
// as clients that "have encountered timeout exceptions").
func phaseRate(cloud *azure.Cloud, clients, opsEach int,
	op func(p *sim.Proc, client, i int) error) (rate float64, survivors int) {
	var totalOps int
	var totalSec float64
	for c := 0; c < clients; c++ {
		c := c
		cloud.Engine.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			start := p.Now()
			done := 0
			for i := 0; i < opsEach; i++ {
				if err := op(p, c, i); err != nil {
					if storerr.IsCode(err, storerr.CodeTimeout) {
						break
					}
					panic(err)
				}
				done++
			}
			totalOps += done
			totalSec += (p.Now() - start).Seconds()
			if done == opsEach {
				survivors++
			}
		})
	}
	cloud.Engine.Run()
	return float64(totalOps) / totalSec, survivors
}

// runFig2Phases executes a level's four phases on cloud through the given
// phase executor, which runs one closed-loop phase over n clients and
// returns (mean per-client rate, survivors). The op bodies live here, once,
// so the legacy drain-per-phase path and the domain driver-process path
// issue literally the same operations.
func runFig2Phases(cfg Fig2Config, cloud *azure.Cloud, n int,
	phase func(opsEach int, op func(p *sim.Proc, c, i int) error) (float64, int)) Fig2Point {
	pt := Fig2Point{Clients: n}

	// Insert phase.
	pt.InsertOps, pt.InsertSurvivors = phase(cfg.Inserts, func(p *sim.Proc, c, i int) error {
		e := tablesvc.PaddedEntity("part", fmt.Sprintf("row-%03d-%04d", c, i), cfg.EntitySize)
		return cloud.Table.Insert(p, "bench", e)
	})

	// The paper's partition holds ~220k entities after the insert phase;
	// top up so later phases see that density regardless of client count.
	backfill(cloud, 220000, cfg.EntitySize)

	// Query phase: each client queries the same entity repeatedly by keys.
	pt.QueryOps, _ = phase(cfg.Queries, func(p *sim.Proc, c, i int) error {
		_, err := cloud.Table.Get(p, "bench", "part", fmt.Sprintf("row-%03d-0000", c))
		return err
	})

	// Update phase: all clients update one shared entity, unconditionally.
	pt.UpdateOps, _ = phase(cfg.Updates, func(p *sim.Proc, c, i int) error {
		return cloud.Table.Update(p, "bench",
			tablesvc.PaddedEntity("part", "row-000-0000", cfg.EntitySize))
	})

	// Delete phase: each client removes the entities it inserted.
	pt.DeleteOps, pt.DeleteSurvivors = phase(cfg.Inserts, func(p *sim.Proc, c, i int) error {
		err := cloud.Table.Delete(p, "bench", "part", fmt.Sprintf("row-%03d-%04d", c, i))
		if storerr.IsCode(err, storerr.CodeNotFound) {
			return nil // client aborted its insert phase early
		}
		return err
	})
	return pt
}

func runFig2Level(cfg Fig2Config, n int) Fig2Point {
	cloud := fig2CloudOn(nil, cfg, n)
	cloud.Table.CreateTable("bench")
	return runFig2Phases(cfg, cloud, n,
		func(opsEach int, op func(p *sim.Proc, c, i int) error) (float64, int) {
			return phaseRate(cloud, n, opsEach, op)
		})
}

// fig2LevelStart builds one level on a domain member engine and returns its
// harvester. The level's phases cannot drain the engine themselves mid
// group-run, so a driver process sequences them: each phase fans its clients
// out under a sim.WaitGroup and parks until the last one finishes, waking at
// exactly the virtual instant the legacy path's Run would have returned at.
// Client spawn order, spawn instants and every storage draw are unchanged,
// so the level's trace — and Fig2Point — is bit-identical to runFig2Level.
func fig2LevelStart(cfg Fig2Config, n int, eng *sim.Engine) func() Fig2Point {
	cloud := fig2CloudOn(eng, cfg, n)
	cloud.Table.CreateTable("bench")
	var pt Fig2Point
	cloud.Engine.Spawn("fig2-driver", func(drv *sim.Proc) {
		pt = runFig2Phases(cfg, cloud, n,
			func(opsEach int, op func(p *sim.Proc, c, i int) error) (float64, int) {
				return phaseRateIn(drv, cloud, n, opsEach, op)
			})
	})
	return func() Fig2Point { return pt }
}

// phaseRateIn is phaseRate driven from inside a simulation: the driver
// process spawns the same clients the drain-per-phase path does and parks on
// a WaitGroup instead of returning to a host-side Run loop.
func phaseRateIn(drv *sim.Proc, cloud *azure.Cloud, clients, opsEach int,
	op func(p *sim.Proc, client, i int) error) (rate float64, survivors int) {
	var totalOps int
	var totalSec float64
	var wg sim.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Go(cloud.Engine, fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			start := p.Now()
			done := 0
			for i := 0; i < opsEach; i++ {
				if err := op(p, c, i); err != nil {
					if storerr.IsCode(err, storerr.CodeTimeout) {
						break
					}
					panic(err)
				}
				done++
			}
			totalOps += done
			totalSec += (p.Now() - start).Seconds()
			if done == opsEach {
				survivors++
			}
		})
	}
	wg.Wait(drv)
	return float64(totalOps) / totalSec, survivors
}

// fig2CloudOn builds a level's cloud on eng, or on a fresh standalone
// engine when eng is nil (the legacy serial path).
func fig2CloudOn(eng *sim.Engine, cfg Fig2Config, n int) *azure.Cloud {
	ccfg := azure.Config{Seed: cfg.Seed + uint64(n)*104729}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = false
	if eng == nil {
		return azure.NewCloud(ccfg)
	}
	return azure.NewCloudOn(eng, ccfg)
}

// backfill fills the bench partition up to total entities without spending
// simulated time. The rows are the padded entities fill-000000,
// fill-000001, … ("fill-%06d"): copies of one template that differ only in
// RowKey, materialised in one slab and stored by one bulk Backdoor, so a
// ~220k-row fill costs a handful of allocations rather than four per row.
func backfill(cloud *azure.Cloud, total, size int) {
	n := total - cloud.Table.PartitionSize("bench", "part")
	if n <= 0 {
		return
	}
	tmpl := tablesvc.PaddedEntity("part", "", size)
	bare := tmpl.Size() - tmpl.PadBytes // size without RowKey and padding
	slab := make([]tablesvc.Entity, n)
	seqKeys("fill-", n, func(i int, rk string) {
		slab[i] = *tmpl
		slab[i].RowKey = rk
		slab[i].PadBytes = max(0, size-bare-len(rk)) // as PaddedEntity pads
	})
	backdoorSlab(cloud.Table, "bench", slab)
}

// Anchors compares against the published Fig. 2 narrative.
func (r *Fig2Result) Anchors() []Anchor {
	var out []Anchor
	find := func(n int) *Fig2Point {
		for i := range r.Points {
			if r.Points[i].Clients == n {
				return &r.Points[i]
			}
		}
		return nil
	}
	p1, p128, p192 := find(1), find(128), find(192)
	if p1 != nil {
		out = append(out, Anchor{"insert per-client @1", "ops/s", 27, p1.InsertOps})
	}
	// The paper reports where aggregate throughput peaks: Update at 8
	// concurrent clients, Delete at 128 (Section 3.2).
	if len(r.Points) >= 4 {
		argmax := func(agg func(Fig2Point) float64) int {
			best, bestN := -1.0, 0
			for _, p := range r.Points {
				if v := agg(p); v > best {
					best, bestN = v, p.Clients
				}
			}
			return bestN
		}
		out = append(out, Anchor{"update aggregate peak location", "clients", 8,
			float64(argmax(func(p Fig2Point) float64 { return p.UpdateOps * float64(p.Clients) }))})
		out = append(out, Anchor{"delete aggregate peak location", "clients", 128,
			float64(argmax(func(p Fig2Point) float64 { return p.DeleteOps * float64(p.Clients) }))})
	}
	if p128 != nil && p192 != nil {
		out = append(out, Anchor{"delete aggregate @128 vs @192 ratio (>1)", "x",
			1.1, p128.DeleteOps * 128 / (p192.DeleteOps * 192)})
	}
	if r.EntitySize >= 65536 {
		if p128 != nil {
			out = append(out, Anchor{"64kB insert survivors @128", "clients", 94, float64(p128.InsertSurvivors)})
		}
		if p192 != nil {
			out = append(out, Anchor{"64kB insert survivors @192", "clients", 89, float64(p192.InsertSurvivors)})
		}
	}
	return out
}
